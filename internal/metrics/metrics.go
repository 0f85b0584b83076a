// Package metrics provides the small reporting toolkit the experiment
// harnesses use: aligned text tables and CDF sampling, so every figure and
// table of the paper can be regenerated as comparable plain text.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// LatencySummary is a streaming summary of operation latencies (count,
// total, min/max, last) — enough to expose a per-operation latency profile
// over an API without retaining samples. The zero value is ready to use;
// callers provide their own synchronization.
type LatencySummary struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Last  time.Duration `json:"last_ns"`
}

// Observe folds one measurement into the summary.
func (s *LatencySummary) Observe(d time.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Count++
	s.Total += d
	s.Last = d
}

// Merge folds o, a summary of other observations, into s. Last is best
// effort: a non-empty o's wins, summaries carry no timestamps.
func (s *LatencySummary) Merge(o LatencySummary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	s.Max = max(s.Max, o.Max)
	s.Count += o.Count
	s.Total += o.Total
	s.Last = o.Last
}

// Mean returns the average observed latency (0 with no observations).
func (s *LatencySummary) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// String implements fmt.Stringer.
func (s *LatencySummary) String() string {
	if s.Count == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%v min=%v max=%v last=%v",
		s.Count, s.Mean().Round(time.Microsecond), s.Min.Round(time.Microsecond),
		s.Max.Round(time.Microsecond), s.Last.Round(time.Microsecond))
}

// IntSummary is a streaming summary of integer-valued observations —
// group-commit batch sizes, queue depths — mirroring LatencySummary for
// counts instead of durations. The zero value is ready to use; callers
// provide their own synchronization.
type IntSummary struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	Last  int64 `json:"last"`
}

// Observe folds one measurement into the summary.
func (s *IntSummary) Observe(v int64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	s.Last = v
}

// Mean returns the average observed value (0 with no observations).
func (s *IntSummary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String implements fmt.Stringer.
func (s *IntSummary) String() string {
	if s.Count == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%.2f min=%d max=%d last=%d",
		s.Count, s.Mean(), s.Min, s.Max, s.Last)
}

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			// Right-align numeric-looking cells, left-align the rest.
			if isNumeric(cell) {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '+' || r == 'e' || r == 'E' || r == '%':
		default:
			return false
		}
	}
	return true
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 10000 || x < 0.001:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// Pct formats a fraction as a percentage cell.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// CDF evaluates the empirical CDF of samples at the given x values.
func CDF(samples []float64, at []float64) []CDFPoint {
	e := stats.NewECDF(samples)
	pts := make([]CDFPoint, len(at))
	for i, x := range at {
		pts[i] = CDFPoint{X: x, P: e.At(x)}
	}
	return pts
}

// Quantiles returns the sample quantiles at the given probabilities.
func Quantiles(samples []float64, ps []float64) []float64 {
	e := stats.NewECDF(samples)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = e.Quantile(p)
	}
	return out
}
