// Package spans is the benchmark's tracer. It records a span around
// each call the benchmark makes across a layer boundary — the HTTP
// handler, the controller behind it, the journal behind that — and
// works out each layer's self time. The spans wrap the program's public
// seams from outside; nothing inside the program is instrumented.
package spans

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Times are offsets from the tracer's start.
type Span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // 0 for a request's root span
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// Tracer collects spans in memory. A span's parent is the span open
// when it began, so the traced calls must come from one goroutine at a
// time; the traced replay is single-caller for that reason.
type Tracer struct {
	now func() time.Time

	mu      sync.Mutex
	t0      time.Time
	spans   []Span
	open    []int // indices into spans of the spans not yet ended, outermost first
	request int
}

// New returns a tracer on the wall clock.
func New() *Tracer { return NewWithClock(time.Now) }

// NewWithClock returns a tracer reading time from now.
func NewWithClock(now func() time.Time) *Tracer {
	return &Tracer{now: now, t0: now()}
}

// Begin opens a span under the innermost open span and returns the
// function that ends it. A span with no open span above it starts a new
// request.
func (t *Tracer) Begin(name string) (end func()) {
	t.mu.Lock()
	sp := Span{ID: len(t.spans) + 1, Name: name}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1]].ID
	} else {
		t.request++
	}
	sp.Request = t.request
	idx := len(t.spans)
	t.spans = append(t.spans, sp)
	t.open = append(t.open, idx)
	t.spans[idx].Start = t.now().Sub(t.t0)
	t.mu.Unlock()

	return func() {
		at := t.now().Sub(t.t0)
		t.mu.Lock()
		t.spans[idx].End = at
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Total is the time of every span of one name.
type Total struct {
	Count int
	Dur   time.Duration // sum of the spans' durations
	Self  time.Duration // sum of the spans' self times
}

// SelfTimes adds up, per span name, the spans' durations and self
// times. A span's self time is its duration minus the part of its
// interval that its child spans cover; overlapping children are counted
// once. Self times of all spans of a request therefore add up to the
// duration of its root span.
func SelfTimes(all []Span) map[string]Total {
	children := make(map[int][]Span)
	for _, sp := range all {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]Total)
	for _, sp := range all {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := sp.Start // everything before edge is already counted
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, sp.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		t := out[sp.Name]
		t.Count++
		t.Dur += sp.End - sp.Start
		t.Self += sp.End - sp.Start - covered
		out[sp.Name] = t
	}
	return out
}
