package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1.5")
	tb.AddRow("b", "120")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5 (title, header, rule, two rows):\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule line = %q", lines[2])
	}
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestTableNumericRightAlignment(t *testing.T) {
	tb := Table{Headers: []string{"model", "x"}}
	tb.AddRow("aaa", "7")
	tb.AddRow("b", "1234")
	out := tb.String()
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := rows[len(rows)-1]
	prev := rows[len(rows)-2]
	if !strings.HasSuffix(prev, "   7") {
		t.Errorf("numeric cell not right-aligned: %q", prev)
	}
	if !strings.HasSuffix(last, "1234") {
		t.Errorf("numeric cell mangled: %q", last)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := Table{Headers: []string{"h"}}
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("untitled table starts with blank line")
	}
}

func TestIsNumeric(t *testing.T) {
	tests := []struct {
		s    string
		want bool
	}{
		{"123", true},
		{"1.5e+03", true},
		{"-0.7", true},
		{"45.0%", true},
		{"", false},
		{"abc", false},
		{"12a", false},
	}
	for _, tt := range tests {
		if got := isNumeric(tt.s); got != tt.want {
			t.Errorf("isNumeric(%q) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestF(t *testing.T) {
	tests := []struct {
		x    float64
		want string
	}{
		{0, "0"},
		{3.14159, "3.142"},
		{123.4, "123"},
		{98765, "9.88e+04"},
		{0.0001, "0.0001"},
	}
	for _, tt := range tests {
		if got := F(tt.x); got != tt.want {
			t.Errorf("F(%v) = %q, want %q", tt.x, got, tt.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.125); got != "12.5%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 3, 4}, []float64{0, 2, 5})
	want := []float64{0, 0.5, 1}
	for i, p := range pts {
		if p.P != want[i] {
			t.Errorf("CDF point %d = %v, want %v", i, p.P, want[i])
		}
	}
}

func TestQuantiles(t *testing.T) {
	qs := Quantiles([]float64{10, 20, 30, 40}, []float64{0.25, 1})
	if qs[0] != 10 || qs[1] != 40 {
		t.Errorf("Quantiles = %v", qs)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty Sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3})
	if runeLen := len([]rune(got)); runeLen != 4 {
		t.Errorf("Sparkline length = %d runes, want 4", runeLen)
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("Sparkline = %q, want min..max glyphs at ends", got)
	}
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat Sparkline = %q, want all-minimum glyphs", string(flat))
		}
	}
}

func TestCDFPlot(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	out := CDFPlot(samples, 0, 10, 5, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "0.0%") {
		t.Errorf("first row should be 0%%: %q", lines[0])
	}
	if !strings.Contains(lines[4], "100.0%") {
		t.Errorf("last row should be 100%%: %q", lines[4])
	}
	if CDFPlot(nil, 0, 1, 5, 10) != "" {
		t.Error("empty samples should render nothing")
	}
	if CDFPlot(samples, 5, 5, 5, 10) != "" {
		t.Error("degenerate range should render nothing")
	}
}

func TestIntSummary(t *testing.T) {
	var s IntSummary
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", s.Mean())
	}
	for _, v := range []int64{3, 1, 4, 1, 5} {
		s.Observe(v)
	}
	if s.Count != 5 || s.Sum != 14 || s.Min != 1 || s.Max != 5 || s.Last != 5 {
		t.Errorf("summary = %+v", s)
	}
	if got, want := s.Mean(), 2.8; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := s.String(); got != "n=5 mean=2.80 min=1 max=5 last=5" {
		t.Errorf("String = %q", got)
	}
}

// TestLatencySummaryMerge: merging two summaries gives what observing
// both streams into one would (Last aside, which takes the merged-in
// summary's), and an empty summary on either side changes nothing.
func TestLatencySummaryMerge(t *testing.T) {
	var a, b, both LatencySummary
	for _, d := range []time.Duration{5, 9, 3} {
		a.Observe(d)
		both.Observe(d)
	}
	for _, d := range []time.Duration{2, 7} {
		b.Observe(d)
		both.Observe(d)
	}
	got := a
	got.Merge(b)
	if got != both {
		t.Errorf("merged = %+v, want %+v", got, both)
	}
	got = a
	got.Merge(LatencySummary{})
	if got != a {
		t.Errorf("merging an empty summary changed %+v to %+v", a, got)
	}
	got = LatencySummary{}
	got.Merge(b)
	if got != b {
		t.Errorf("merging into an empty summary = %+v, want %+v", got, b)
	}
}
