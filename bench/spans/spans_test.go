package spans

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimeArithmetic(t *testing.T) {
	// One request: the handler runs 0..100. Under it the controller runs
	// 10..70, and under that the journal stages 20..30 and waits 40..65.
	// A second, overlapping pair of children sits under a second root to
	// check that covered time is counted once.
	all := []Span{
		{ID: 1, Parent: 0, Request: 1, Name: Handle, Start: 0, End: 100 * us},
		{ID: 2, Parent: 1, Request: 1, Name: Admit, Start: 10 * us, End: 70 * us},
		{ID: 3, Parent: 2, Request: 1, Name: Stage, Start: 20 * us, End: 30 * us},
		{ID: 4, Parent: 2, Request: 1, Name: CommitWait, Start: 40 * us, End: 65 * us},

		{ID: 5, Parent: 0, Request: 2, Name: "root", Start: 200 * us, End: 300 * us},
		{ID: 6, Parent: 5, Request: 2, Name: "a", Start: 210 * us, End: 260 * us},
		{ID: 7, Parent: 5, Request: 2, Name: "b", Start: 240 * us, End: 310 * us}, // overlaps a, overruns the root
	}
	got := SelfTimes(all)
	for name, want := range map[string]Total{
		Handle:     {Count: 1, Dur: 100 * us, Self: 40 * us},
		Admit:      {Count: 1, Dur: 60 * us, Self: 25 * us},
		Stage:      {Count: 1, Dur: 10 * us, Self: 10 * us},
		CommitWait: {Count: 1, Dur: 25 * us, Self: 25 * us},
		"root":     {Count: 1, Dur: 100 * us, Self: 10 * us}, // 210..300 is covered, once
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
	// The parts add up to the whole: the first request's self times sum
	// to its root span.
	if sum := got[Handle].Self + got[Admit].Self + got[Stage].Self + got[CommitWait].Self; sum != 100*us {
		t.Errorf("self times of request 1 add up to %v, want the root's 100µs", sum)
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	now := time.Unix(0, 0)
	tick := func() time.Time { now = now.Add(us); return now }
	tr := NewWithClock(tick)

	endRoot := tr.Begin(Handle)
	endChild := tr.Begin(Admit)
	endGrand := tr.Begin(Stage)
	endGrand()
	endChild()
	endRoot()
	tr.Begin(Handle)() // a second request

	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("%d spans, want 4", len(got))
	}
	for i, want := range []struct{ parent, request int }{{0, 1}, {1, 1}, {2, 1}, {0, 2}} {
		if got[i].Parent != want.parent || got[i].Request != want.request {
			t.Errorf("span %d: parent %d request %d, want %d and %d", i+1, got[i].Parent, got[i].Request, want.parent, want.request)
		}
		if got[i].End <= got[i].Start {
			t.Errorf("span %d ends at %v, starts at %v", i+1, got[i].End, got[i].Start)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("wrote %d lines, want 4", lines)
	}
}
