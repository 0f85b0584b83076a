package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/bench/spans"
	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

// traced is the outcome of one traced replay.
type traced struct {
	layers         values
	totals         map[string]spans.Total // per span name, over the replayed requests
	untracedMeanMs float64                // mean handler call with no tracer attached
}

// traceFile is where a workload's spans are written.
func (e *env) traceFile(name string) string {
	return filepath.Join(e.out, "trace-"+name+".jsonl")
}

// inProcess is a manager journaled to a fresh directory behind the HTTP
// handler, all in this process, optionally with the tracer's wrappers at
// the three seams.
type inProcess struct {
	mgr     *core.Manager
	journal *wal.Journal
	load    *svcload.Runner
}

func (e *env) newInProcess(fsync bool, tr *spans.Tracer) (*inProcess, error) {
	var opts []wal.Option
	if !fsync {
		opts = append(opts, wal.WithNoSync())
	}
	mgr, journal, err := wal.Recover(e.dir("inproc"), e.topo, eps, nil, opts...)
	if err != nil {
		return nil, err
	}
	var ctrl httpapi.Controller = mgr
	if tr != nil {
		mgr.SetJournal(spans.Journal{AsyncJournal: journal, T: tr})
		ctrl = spans.Controller{Controller: mgr, T: tr}
	}
	handler := httpapi.NewControllerServer(ctrl).Handler()
	if tr != nil {
		handler = spans.Handler(tr, handler)
	}
	return &inProcess{mgr: mgr, journal: journal,
		load: &svcload.Runner{Target: svcload.HandlerTarget{Handler: handler}}}, nil
}

func (p *inProcess) close() error {
	p.mgr.SetJournal(nil)
	return p.journal.Close()
}

// tracedReplay sends the same requests from a single caller to two
// in-process handlers: one bare, one with a span around every call
// across a layer boundary. The difference between the two is the
// tracer's overhead; the traced pass gives each layer's self time.
func tracedReplay(ctx context.Context, e *env, name string, prefill, ops []svcload.Op, fsync bool) (*traced, error) {
	bare, err := e.newInProcess(fsync, nil)
	if err != nil {
		return nil, err
	}
	tr := spans.New()
	wrapped, err := e.newInProcess(fsync, tr)
	if err != nil {
		return nil, err
	}
	bare.load.Sequence(ctx, prefill)
	wrapped.load.Sequence(ctx, prefill)
	skip := len(tr.Spans())

	// The two passes take turns, a chunk of requests at a time and
	// swapping who goes first, so that drift in the machine or the disk
	// falls on both alike; their difference is then the tracer's cost.
	const chunk = 50
	untraced, phase := &svcload.Phase{}, &svcload.Phase{}
	for i, first := 0, false; i < len(ops); i, first = i+chunk, !first {
		part := ops[i:min(i+chunk, len(ops))]
		if first {
			phase.Add(wrapped.load.Sequence(ctx, part))
			untraced.Add(bare.load.Sequence(ctx, part))
		} else {
			untraced.Add(bare.load.Sequence(ctx, part))
			phase.Add(wrapped.load.Sequence(ctx, part))
		}
	}
	if err := bare.close(); err != nil {
		return nil, err
	}
	if err := wrapped.close(); err != nil {
		return nil, err
	}
	for _, p := range []*inProcess{bare, wrapped} {
		if _, failed, _, _ := p.load.Tally(); failed > 0 {
			return nil, fmt.Errorf("traced replay: %d requests failed: %v", failed, p.load.Failures())
		}
	}

	f, err := os.Create(e.traceFile(name))
	if err != nil {
		return nil, err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	totals := spans.SelfTimes(tr.Spans()[skip:])
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	var selfSum time.Duration
	for _, t := range totals {
		selfSum += t.Self
	}
	// The handler calls as the target's own stopwatch timed them, outside
	// the tracer: what the spans' self times must add up to.
	meanMs := func(p *svcload.Phase) float64 {
		if p.Done == 0 {
			return 0
		}
		return float64(p.Service) / float64(time.Millisecond) / float64(p.Done)
	}
	untracedMean := meanMs(untraced)

	l := values{}
	h, a, r, d := totals[spans.Handle], totals[spans.Admit], totals[spans.Release], totals[spans.DryRun]
	s, w := totals[spans.Stage], totals[spans.CommitWait]
	l["httpapi.handle_self_us"] = us(h.Self, h.Count)
	l["core.admit_self_us"] = us(a.Self, a.Count)
	l["core.release_self_us"] = us(r.Self, r.Count)
	l["core.dryrun_us"] = us(d.Dur, d.Count)
	l["wal.stage_us"] = us(s.Dur, s.Count)
	l["wal.commit_wait_us"] = us(w.Dur, w.Count)
	if phase.Done > 0 {
		l["httpapi.req_bytes"] = float64(phase.ReqB) / float64(phase.Done)
		l["httpapi.resp_bytes"] = float64(phase.RespB) / float64(phase.Done)
	}
	if phase.Service > 0 {
		l["trace.span_sum_over_e2e"] = float64(selfSum) / float64(phase.Service)
	}
	if untracedMean > 0 {
		l["trace.overhead_share"] = pairedExtraMs(untraced, phase) / untracedMean
	}
	return &traced{layers: l, totals: totals, untracedMeanMs: untracedMean}, nil
}

// inProcessLayers adds what every traced run measures inside this
// process: the traced replay of the workload's own requests, with its
// budget checked, and the layer probes.
func (r *result) inProcessLayers(ctx context.Context, e *env, name string, seed uint64,
	prefill, ops []svcload.Op, fsync bool, logDir *stateDir) (*traced, error) {
	tr, err := tracedReplay(ctx, e, name, prefill, ops, fsync)
	if err != nil {
		return nil, err
	}
	r.layers.merge(tr.layers)
	r.checkBudget(name, tr)
	probes, err := layerProbes(ctx, e, seed, logDir)
	if err != nil {
		return nil, err
	}
	r.layers.merge(probes)
	return tr, nil
}

// pairedExtraMs is the median, over the requests both passes completed,
// of how much longer the traced pass took for the same request. Pairing
// request by request and taking the median keeps one pass's garbage
// collection or slow fsync from reading as tracer cost, which a
// difference of means does not.
func pairedExtraMs(bare, traced *svcload.Phase) float64 {
	var extra []float64
	for k := range bare.Lat {
		for i := 0; i < min(len(bare.Lat[k]), len(traced.Lat[k])); i++ {
			extra = append(extra, traced.Lat[k][i]-bare.Lat[k][i])
		}
	}
	return svcload.Median(extra)
}
