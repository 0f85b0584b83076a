package svcload

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// Reply is a target's answer to one request.
type Reply struct {
	Status    int   // HTTP status, or its equivalent for an in-process target
	ID        int64 // job id of a 201
	ReqBytes  int
	RespBytes int
	Service   time.Duration // HandlerTarget only: the handler call alone
	Err       error         // transport failure
}

// Target executes requests: a real svcd over HTTP, an http.Handler in
// process, or a manager called directly.
type Target interface {
	Do(ctx context.Context, kind Kind, req *httpapi.AllocationRequest, job int64, key string) Reply
}

// Clock is the runner's time source; tests substitute a fake.
type Clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sleep spins on the clock until d has passed. A generator that slept
// would hand its processor back, and how soon a virtual machine gets one
// again after its timer fires is its host's business: time.Sleep wakes
// 0.6 ms late at the median on the reference host, nanosleep(2) 0.1 ms
// and far more beside a busy neighbour — as long as the requests being
// timed. The generator has a processor to itself while it waits (svcd
// is idle between the requests of one connection), so it keeps it.
func (realClock) Sleep(d time.Duration) {
	for until := time.Now().Add(d); time.Now().Before(until); {
	}
}

// completed is a keyed request that succeeded, kept for replays.
type completed struct {
	kind Kind
	req  httpapi.AllocationRequest
	job  int64
	key  string
}

// recentKeys is how many completed keyed requests replays choose from.
const recentKeys = 64

// Runner drives one target through the phases of a run and checks every
// reply. It carries the state that outlives a phase: the jobs admitted
// and not yet released, oldest first, and the tallies the result line
// reports. Its methods may follow each other but not overlap.
type Runner struct {
	Target Target
	Clock  Clock // nil means the wall clock

	mu        sync.Mutex
	held      []int64
	recent    []completed
	replays   int
	owed      int // admits refused and not yet made up for by a skipped release
	attempted int
	failed    int
	rejected  int
	admits    int
	failures  []string // the first few, for the report
}

// Phase is what one phase measured.
type Phase struct {
	Elapsed time.Duration
	Lat     [numKinds][]float64 // latency in ms of each checked request, by kind
	Late    []float64           // open loop: ms a worker that waited for a due time woke after it
	Backlog []int               // open loop, by request: requests due and not yet dispatched at its dispatch
	Done    int                 // requests whose reply was of the expected class
	ReqB    int64
	RespB   int64
	Service time.Duration // HandlerTarget only: time inside the handler, over the Done requests
}

// Add folds another phase's samples and counts into p; Elapsed, which
// belongs to one phase, is left alone.
func (p *Phase) Add(q *Phase) {
	p.Backlog = append(p.Backlog, q.Backlog...)
	for k := range p.Lat {
		p.Lat[k] = append(p.Lat[k], q.Lat[k]...)
	}
	p.Late = append(p.Late, q.Late...)
	p.Done += q.Done
	p.ReqB += q.ReqB
	p.RespB += q.RespB
	p.Service += q.Service
}

// Scale multiplies every time the phase measured by f: the caller's
// correction for a clock that ran fast or slow over the phase.
func (p *Phase) Scale(f float64) {
	p.Elapsed = time.Duration(float64(p.Elapsed) * f)
	p.Service = time.Duration(float64(p.Service) * f)
	for k := range p.Lat {
		for i := range p.Lat[k] {
			p.Lat[k][i] *= f
		}
	}
	for i := range p.Late {
		p.Late[i] *= f
	}
}

// Pooled returns the latencies of several kinds together.
func (p *Phase) Pooled(kinds ...Kind) []float64 {
	var out []float64
	for _, k := range kinds {
		out = append(out, p.Lat[k]...)
	}
	return out
}

func (r *Runner) clock() Clock {
	if r.Clock == nil {
		return realClock{}
	}
	return r.Clock
}

// Hold adds jobs admitted before the runner existed, oldest first, to
// the jobs its releases draw on.
func (r *Runner) Hold(jobs []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held = append(r.held, jobs...)
}

// Held returns how many admitted jobs have not been released.
func (r *Runner) Held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.held)
}

// Tally reports requests attempted, requests failed (transport errors,
// 5xx, replies of the wrong class, replays that changed their answer),
// admits sent, and admits refused for capacity. A 409 for capacity is an
// expected outcome, not a failure.
func (r *Runner) Tally() (attempted, failed, admits, rejected int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed, r.admits, r.rejected
}

// Failures returns the first few failure messages.
func (r *Runner) Failures() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.failures...)
}

func (r *Runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// bind resolves what an op sends: a release takes the oldest held job, a
// replay re-sends a recent keyed request. ok is false when there is
// nothing to release or replay, and the op is skipped.
func (r *Runner) bind(op *Op) (c completed, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op.Kind {
	case KindRelease:
		// The stream pairs every admit with a release. An admit refused
		// for capacity added no job, so the release paired with it is
		// dropped, or the held jobs would drain one refusal at a time.
		if r.owed > 0 {
			r.owed--
			return c, false
		}
		if len(r.held) == 0 {
			return c, false
		}
		c = completed{kind: KindRelease, job: r.held[0], key: op.Key}
		r.held = r.held[1:]
	case KindReplay:
		if len(r.recent) == 0 {
			return c, false
		}
		c = r.recent[r.replays%len(r.recent)]
		r.replays++
	default:
		c = completed{kind: op.Kind, req: op.Req, key: op.Key}
	}
	r.attempted++
	return c, true
}

// exec sends one op and checks its reply; ok reports a reply of the
// expected class, and sent is false when the op was skipped.
func (r *Runner) exec(ctx context.Context, op *Op) (rep Reply, sent, ok bool) {
	c, sent := r.bind(op)
	if !sent {
		return rep, false, false
	}
	rep = r.Target.Do(ctx, c.kind, &c.req, c.job, c.key)

	r.mu.Lock()
	defer r.mu.Unlock()
	if rep.Err != nil {
		r.fail("%v: %v", c.kind, rep.Err)
		return rep, true, false
	}
	replay := op.Kind == KindReplay
	switch c.kind {
	case KindAdmit:
		if !replay {
			r.admits++
		}
		switch {
		case rep.Status == http.StatusCreated && replay:
			if rep.ID != c.job {
				r.fail("replay of key %s returned job %d, first reply was job %d", c.key, rep.ID, c.job)
				return rep, true, false
			}
		case rep.Status == http.StatusCreated:
			r.held = append(r.held, rep.ID)
			c.job = rep.ID
		case rep.Status == http.StatusConflict && !replay:
			r.rejected++
			r.owed++
			return rep, true, true
		default:
			r.fail("admit: status %d", rep.Status)
			return rep, true, false
		}
	case KindRelease:
		if rep.Status != http.StatusNoContent {
			r.fail("release of job %d: status %d", c.job, rep.Status)
			return rep, true, false
		}
	default:
		if rep.Status != http.StatusOK {
			r.fail("%v: status %d", c.kind, rep.Status)
			return rep, true, false
		}
	}
	if c.key != "" && !replay {
		if len(r.recent) < recentKeys {
			r.recent = append(r.recent, c)
		} else {
			r.recent[r.attempted%recentKeys] = c
		}
	}
	return rep, true, true
}

func (p *Phase) record(kind Kind, rep Reply, ms float64) {
	p.Lat[kind] = append(p.Lat[kind], ms)
	p.Done++
	p.ReqB += int64(rep.ReqBytes)
	p.RespB += int64(rep.RespBytes)
	p.Service += rep.Service
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Sequence sends ops one after another from the calling goroutine. With
// one caller every outcome is decided by the stream alone, so the same
// ops against the same starting state end in the same state.
func (r *Runner) Sequence(ctx context.Context, ops []Op) *Phase {
	clk := r.clock()
	p := &Phase{}
	begin := clk.Now()
	for i := range ops {
		if ctx.Err() != nil {
			break
		}
		start := clk.Now()
		rep, sent, ok := r.exec(ctx, &ops[i])
		if sent && ok {
			p.record(ops[i].Kind, rep, ms(clk.Now().Sub(start)))
		}
	}
	p.Elapsed = clk.Now().Sub(begin)
	return p
}

// OpenLoop sends ops[i] at due[i] after the phase starts, whatever
// happened to the requests before it, through a fixed number of workers
// (each one keep-alive connection). A request's latency runs from its
// due time, not from its dispatch: when a slow reply holds a worker, the
// wait it imposes on the requests queued behind it is counted. Late
// records the generator's own error — how long after a due time a
// worker that was waiting for it woke; Backlog, how many requests were
// due and waiting for a free worker at each dispatch.
func (r *Runner) OpenLoop(ctx context.Context, ops []Op, due []time.Duration, workers int) *Phase {
	clk := r.clock()
	begin := clk.Now()
	var next atomic.Int64
	backlog := make([]int, len(ops))
	parts := make([]*Phase, workers)
	var wg sync.WaitGroup
	for w := range parts {
		p := &Phase{}
		parts[w] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				since := clk.Now().Sub(begin)
				if wait := due[i] - since; wait > 0 {
					clk.Sleep(wait)
					since = clk.Now().Sub(begin)
					p.Late = append(p.Late, ms(since-due[i]))
				}
				dueNow := sort.Search(len(due), func(j int) bool { return due[j] > since })
				backlog[i] = max(dueNow-i-1, 0)
				rep, sent, ok := r.exec(ctx, &ops[i])
				if sent && ok {
					p.record(ops[i].Kind, rep, ms(clk.Now().Sub(begin)-due[i]))
				}
			}
		}()
	}
	wg.Wait()
	total := &Phase{Elapsed: clk.Now().Sub(begin), Backlog: backlog}
	for _, p := range parts {
		total.Add(p)
	}
	return total
}

// ClosedLoop has each worker send its next request as soon as the
// previous one is answered, for the given duration.
func (r *Runner) ClosedLoop(ctx context.Context, gen *Gen, over time.Duration, workers int) *Phase {
	clk := r.clock()
	begin := clk.Now()
	parts := make([]*Phase, workers)
	var wg sync.WaitGroup
	for w := range parts {
		p := &Phase{}
		parts[w] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := clk.Now()
				if start.Sub(begin) >= over {
					return
				}
				op := gen.Next()
				rep, sent, ok := r.exec(ctx, &op)
				if sent && ok {
					p.record(op.Kind, rep, ms(clk.Now().Sub(start)))
				}
			}
		}()
	}
	wg.Wait()
	total := &Phase{Elapsed: clk.Now().Sub(begin)}
	for _, p := range parts {
		total.Add(p)
	}
	return total
}
