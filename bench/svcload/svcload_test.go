package svcload

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/topology"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, mix := range []Mix{DurableChurn, PlanMiss, ReadMix, Churn, SmallKeyed} {
		stream := func(seed uint64) []byte {
			g := NewGen(mix, seed)
			ops := append(g.Prefill(200), g.Take(500)...)
			b, err := json.Marshal(ops)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if a, b := stream(7), stream(7); string(a) != string(b) {
			t.Errorf("%s: the same seed gave two different streams", mix.Name)
		}
		if a, b := stream(7), stream(8); string(a) == string(b) {
			t.Errorf("%s: two seeds gave the same stream", mix.Name)
		}
	}
	a, b := PoissonSchedule(3, 900, time.Second), PoissonSchedule(3, 900, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if len(a) < 800 || len(a) > 1000 {
		t.Errorf("900 req/s over 1 s scheduled %d requests", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not in time order at %d", i)
		}
	}
}

func TestMutationsAlternate(t *testing.T) {
	ops := NewGen(ReadMix, 1).Take(2000)
	want := KindAdmit
	for _, op := range ops {
		if op.Kind != KindAdmit && op.Kind != KindRelease {
			continue
		}
		if op.Kind != want {
			t.Fatalf("mutations do not alternate: got %v, want %v", op.Kind, want)
		}
		want = KindAdmit + KindRelease - want
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(i)
	}
	if got := Tail(samples, 0.99); got != 0 {
		t.Errorf("Tail quoted a p99 of %v from 500 samples, 5 beyond it", got)
	}
	if got := Tail(samples, 0.90); got < 448 || got > 451 {
		t.Errorf("p90 of 0..499 = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	// One stalled slice and one lucky one do not count; the rest are averaged.
	if got := TrimmedMean([]float64{30, 1, 20, 40, 1000, 30, 20, 40, 30, 30}, 0.1); got != 30 {
		t.Errorf("TrimmedMean = %v, want 30", got)
	}
	if got := TrimmedMean([]float64{4, 2}, 0.1); got != 3 {
		t.Errorf("TrimmedMean of two samples = %v, want their mean 3", got)
	}
}

// fakeClock is a clock only the test's single worker advances.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// scriptedTarget answers 200 after a scripted service time on the fake
// clock.
type scriptedTarget struct {
	clock   *fakeClock
	service []time.Duration
	calls   int
}

func (s *scriptedTarget) Do(context.Context, Kind, *httpapi.AllocationRequest, int64, string) Reply {
	s.clock.Sleep(s.service[s.calls])
	s.calls++
	return Reply{Status: http.StatusOK}
}

// One reply stalls; the requests that came due while it was outstanding
// are dispatched late, and their latency must include that wait.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	clock := &fakeClock{now: time.Unix(1000, 0)}
	target := &scriptedTarget{clock: clock, service: []time.Duration{ms, ms, 10 * ms, ms, ms, ms, ms}}
	r := &Runner{Target: target, Clock: clock}
	ops := make([]Op, 7)
	due := make([]time.Duration, 7)
	for i := range ops {
		ops[i] = Op{Kind: KindStatus}
		due[i] = time.Duration(2*i) * ms
	}
	p := r.OpenLoop(context.Background(), ops, due, 1)

	// Request 2 is due at 4 ms and takes 10: it ends at 14. Request 3 was
	// due at 6 and 4 at 8; they run back to back behind it. 5 and 6 are
	// due at 10 and 12, still behind.
	want := []float64{1, 1, 10, 9, 8, 7, 6}
	if !reflect.DeepEqual(p.Lat[KindStatus], want) {
		t.Errorf("latencies from due time = %v, want %v", p.Lat[KindStatus], want)
	}
	if wantBacklog := []int{0, 0, 0, 3, 2, 1, 0}; !reflect.DeepEqual(p.Backlog, wantBacklog) {
		t.Errorf("backlog at dispatch = %v, want %v", p.Backlog, wantBacklog)
	}
	// The worker slept until requests 1 and 2 came due, and the fake
	// clock woke it exactly on time; request 0 was due at once and the
	// rest were already late when it got to them.
	if !reflect.DeepEqual(p.Late, []float64{0, 0}) {
		t.Errorf("timer lateness = %v, want two on-time wake-ups", p.Late)
	}
}

// A phase measured while the clock ran at 0.8 of its reference speed
// counts for 0.8 of what it measured.
func TestPhaseScale(t *testing.T) {
	p := &Phase{Elapsed: time.Second, Service: 10 * time.Millisecond, Late: []float64{0.5}, Done: 3}
	p.Lat[KindAdmit] = []float64{1, 2}
	p.Lat[KindStatus] = []float64{4}
	p.Scale(0.5)
	if p.Elapsed != 500*time.Millisecond || p.Service != 5*time.Millisecond || p.Done != 3 {
		t.Errorf("scaled phase: elapsed %v, service %v, done %d", p.Elapsed, p.Service, p.Done)
	}
	if !reflect.DeepEqual(p.Lat[KindAdmit], []float64{0.5, 1}) || !reflect.DeepEqual(p.Lat[KindStatus], []float64{2}) ||
		!reflect.DeepEqual(p.Late, []float64{0.25}) {
		t.Errorf("scaled samples: %v %v %v", p.Lat[KindAdmit], p.Lat[KindStatus], p.Late)
	}
}

// statusTarget answers every request with fixed replies.
type statusTarget struct{ replies []Reply }

func (s *statusTarget) Do(context.Context, Kind, *httpapi.AllocationRequest, int64, string) Reply {
	rep := s.replies[0]
	s.replies = s.replies[1:]
	return rep
}

func TestRunnerChecksReplies(t *testing.T) {
	target := &statusTarget{replies: []Reply{
		{Status: http.StatusCreated, ID: 7},      // admit, keyed
		{Status: http.StatusCreated, ID: 7},      // replay, same answer
		{Status: http.StatusCreated, ID: 8},      // replay, changed answer: a failure
		{Status: http.StatusConflict},            // admit refused: expected, no job
		{Status: http.StatusNoContent},           // release of job 7
		{Status: http.StatusInternalServerError}, // status: a failure
	}}
	r := &Runner{Target: target}
	ops := []Op{
		{Kind: KindAdmit, Key: "k1"},
		{Kind: KindReplay},
		{Kind: KindReplay},
		{Kind: KindAdmit, Key: "k2"},
		{Kind: KindRelease}, // dropped: pairs with the refused admit
		{Kind: KindRelease},
		{Kind: KindRelease}, // skipped: nothing held
		{Kind: KindStatus},
	}
	p := r.Sequence(context.Background(), ops)
	attempted, failed, admits, rejected := r.Tally()
	if attempted != 6 || failed != 2 || admits != 2 || rejected != 1 {
		t.Errorf("tally = attempted %d failed %d admits %d rejected %d, want 6 2 2 1; failures %v",
			attempted, failed, admits, rejected, r.Failures())
	}
	if r.Held() != 0 || p.Done != 4 {
		t.Errorf("held %d, done %d; want 0 and 4", r.Held(), p.Done)
	}
}

// Each HTTP workload's mix, end to end over a real HTTP server in this
// process: prefill, a single-client sequence, a short open loop and a
// short closed loop, with every reply checked and the jobs conserved.
func TestMixesOverHTTP(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mix  Mix
		rate float64
	}{{DurableChurn, 900}, {PlanMiss, 300}, {ReadMix, 2500}} {
		t.Run(c.mix.Name, func(t *testing.T) {
			mgr, err := core.NewManager(topo, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(httpapi.NewServer(mgr).Handler())
			defer srv.Close()
			target := NewHTTPTarget(srv.URL, 2)
			defer target.Close()

			ctx := context.Background()
			gen := NewGen(c.mix, 1)
			r := &Runner{Target: target}
			r.Sequence(ctx, gen.Prefill(topo.TotalSlots()/2))
			r.Sequence(ctx, gen.Take(100))
			due := PoissonSchedule(1, c.rate, 300*time.Millisecond)
			open := r.OpenLoop(ctx, gen.Take(len(due)), due, 2)
			closed := r.ClosedLoop(ctx, gen, 300*time.Millisecond, 2)

			attempted, failed, _, _ := r.Tally()
			if failed != 0 || attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", attempted, failed, r.Failures())
			}
			if open.Done == 0 || closed.Done == 0 {
				t.Errorf("open loop completed %d, closed loop %d", open.Done, closed.Done)
			}
			if mgr.Running() != r.Held() {
				t.Errorf("the manager runs %d jobs, the runner holds %d", mgr.Running(), r.Held())
			}
			for _, ll := range mgr.LinkLoads() {
				if !(ll.Occupancy < 1) {
					t.Fatalf("link %d occupancy %v", ll.Link, ll.Occupancy)
				}
			}
		})
	}
}
