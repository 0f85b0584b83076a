// Package svcload is the benchmark's load generator: seeded request
// streams for each traffic mix, a Poisson arrival schedule, and runners
// that drive a target in sequence, open loop, or closed loop while
// checking every reply.
package svcload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// Kind is the request type of one generated operation.
type Kind uint8

// Request kinds. KindReplay re-sends a recently completed keyed request.
const (
	KindAdmit Kind = iota
	KindRelease
	KindDryRun
	KindStatus
	KindLinks
	KindReplay
	numKinds
)

func (k Kind) String() string {
	return [...]string{"admit", "release", "dryrun", "status", "links", "replay"}[k]
}

// Op is one generated request. A release names no job: the runner binds
// it to the oldest held job when it is dispatched, which keeps the
// number of held jobs at its prefill level.
type Op struct {
	Kind Kind
	Req  httpapi.AllocationRequest // admit and dryrun
	Key  string                    // idempotency key, "" for none
}

// VMs returns the slot count an admit asks for.
func (o *Op) VMs() int {
	if len(o.Req.Demands) > 0 {
		return len(o.Req.Demands)
	}
	return o.Req.N
}

// Mix describes one workload's traffic. The shares are of non-replay
// requests and must sum to 1; mutations alternate admit, release.
type Mix struct {
	Name        string
	Mutate      float64 // admit/release, strictly alternating
	DryRun      float64
	Status      float64
	Links       float64
	Paper       bool    // admits draw from the paper population, else the catalogue
	HeteroShare float64 // share of admits that are heterogeneous N=8 requests
	Keyed       bool    // every mutation carries a unique Idempotency-Key
	ReplayShare float64 // share of all requests that replay a recent key
	Sizes       []int   // catalogue job sizes; nil means {2,4,8,16}
}

// The five workloads' mixes. restart-recover uses Churn to build its
// log-only directory, SmallKeyed for the snapshot one, and FailoverTail
// for the writes a standby must have when its primary dies.
var (
	DurableChurn = Mix{Name: "durable-churn", Mutate: 1, Keyed: true, ReplayShare: 0.02}
	PlanMiss     = Mix{Name: "plan-miss", Mutate: 1, Paper: true, HeteroShare: 0.05}
	ReadMix      = Mix{Name: "read-mix", Mutate: 0.20, DryRun: 0.60, Status: 0.15, Links: 0.05}
	Churn        = Mix{Name: "churn", Mutate: 1}
	SmallKeyed   = Mix{Name: "small-keyed", Mutate: 1, Keyed: true, Sizes: []int{2}}
	FailoverTail = Mix{Name: "failover-tail", Mutate: 1, Keyed: true, Sizes: []int{2}}
)

// catalogueProfiles are the two demand profiles of the flavour
// catalogue; with four sizes that is eight plan-cache keys, inside the
// planner's twelve-entry cache.
var catalogueProfiles = [...]httpapi.AllocationRequest{
	{Mu: 100, Sigma: 40},
	{Mu: 300, Sigma: 100},
}

var paperRateMeans = [...]float64{100, 200, 300, 400, 500}

// deck deals values from shuffled blocks: fill builds one block, and
// draw hands its values out in a seeded random order before asking for
// the next. Streams dealt this way have the same composition whatever
// the seed — each block holds every flavour once, every kind in its
// share — and differ only in order, so two seeds load the system alike
// and a run's metrics do not depend on the luck of the draw.
type deck[T any] struct {
	cards []T
	fill  func() []T
}

func (d *deck[T]) draw(rng *rand.Rand) T {
	if len(d.cards) == 0 {
		d.cards = d.fill()
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return c
}

// Gen produces a mix's request stream. The same mix and seed give the
// same stream; Next is safe for concurrent use, so closed-loop workers
// share one generator and split its stream between them.
type Gen struct {
	mu        sync.Mutex
	mix       Mix
	seed      uint64
	rng       *rand.Rand
	seq       int // requests generated, numbers the idempotency keys
	mutations int // mutations generated, drives the admit/release alternation

	kinds    deck[Kind]                      // blocks of 100 requests
	admits   deck[httpapi.AllocationRequest] // admits: one block is the catalogue once, or 20 paper jobs
	dryruns  deck[httpapi.AllocationRequest] // dryruns: the catalogue once
	paperMus deck[float64]                   // per-VM means of heterogeneous requests
}

// NewGen returns the generator of a mix's stream for one seed.
func NewGen(mix Mix, seed uint64) *Gen {
	g := &Gen{mix: mix, seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5bd1e995^seed<<1))}
	g.kinds.fill = g.kindBlock
	g.admits.fill = g.catalogue
	if mix.Paper {
		g.admits.fill = g.paperBlock
	}
	g.dryruns.fill = g.catalogue
	g.paperMus.fill = func() []float64 { return append([]float64(nil), paperRateMeans[:]...) }
	return g
}

// kindBlock lays out 100 requests in the mix's shares: replays first,
// then the rest split by largest remainder.
func (g *Gen) kindBlock() []Kind {
	const block = 100
	kinds := make([]Kind, 0, block)
	for i := 0; i < int(math.Round(block*g.mix.ReplayShare)); i++ {
		kinds = append(kinds, KindReplay)
	}
	rest := float64(block - len(kinds))
	shares := []struct {
		kind  Kind
		share float64
	}{{KindAdmit, g.mix.Mutate}, {KindDryRun, g.mix.DryRun}, {KindStatus, g.mix.Status}, {KindLinks, g.mix.Links}}
	for _, s := range shares {
		for i := 0; i < int(s.share*rest); i++ {
			kinds = append(kinds, s.kind)
		}
	}
	// What rounding down left over goes to the largest share first.
	for i := 0; len(kinds) < block; i++ {
		best := 0
		for j, s := range shares {
			if s.share > shares[best].share {
				best = j
			}
		}
		kinds = append(kinds, shares[best].kind)
		shares[best].share = -1
	}
	return kinds
}

// Next returns the next request of the stream.
func (g *Gen) Next() Op {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	switch kind := g.kinds.draw(g.rng); kind {
	case KindAdmit: // any mutation: admits and releases alternate
		g.mutations++
		op := Op{Kind: KindRelease}
		if g.mutations%2 == 1 {
			op = Op{Kind: KindAdmit, Req: g.admits.draw(g.rng)}
		}
		op.Key = g.key()
		return op
	case KindDryRun:
		return Op{Kind: KindDryRun, Req: g.dryruns.draw(g.rng)}
	default:
		return Op{Kind: kind}
	}
}

func (g *Gen) key() string {
	if !g.mix.Keyed {
		return ""
	}
	return fmt.Sprintf("%s-%d-%d", g.mix.Name, g.seed, g.seq)
}

// Take returns the next n requests of the stream.
func (g *Gen) Take(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// Prefill returns admits from the mix's population whose sizes add up
// to at least slots — the deterministic fill that precedes every run.
func (g *Gen) Prefill(slots int) []Op {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ops []Op
	for filled := 0; filled < slots; {
		g.seq++
		op := Op{Kind: KindAdmit, Req: g.admits.draw(g.rng), Key: g.key()}
		filled += op.VMs()
		ops = append(ops, op)
	}
	return ops
}

// catalogue is one block of catalogue requests: every flavour once.
func (g *Gen) catalogue() []httpapi.AllocationRequest {
	sizes := g.mix.Sizes
	if sizes == nil {
		sizes = []int{2, 4, 8, 16}
	}
	var block []httpapi.AllocationRequest
	for _, profile := range catalogueProfiles {
		for _, n := range sizes {
			req := profile
			req.N = n
			block = append(block, req)
		}
	}
	return block
}

// paperBlock is one block of 20 jobs from the paper's population
// (Section VI-A): sizes exponential around 49 VMs, clipped to 2..200;
// mu from {100..500}; sigma = rho*mu with rho uniform in (0,1). The block
// is a stratified sample: one size and one rho from each twentieth of
// their distributions and each mu four times, independently shuffled.
// The continuous rho makes every request a new plan-cache key.
func (g *Gen) paperBlock() []httpapi.AllocationRequest {
	const block = 20
	stratum := func() []float64 { // one uniform draw from each twentieth of (0,1), shuffled
		u := make([]float64, block)
		for k := range u {
			u[k] = (float64(k) + g.rng.Float64()) / block
		}
		g.rng.Shuffle(block, func(i, j int) { u[i], u[j] = u[j], u[i] })
		return u
	}
	sizes, rhos := stratum(), stratum()
	mus := g.rng.Perm(block)
	reqs := make([]httpapi.AllocationRequest, block)
	for i := range reqs {
		n := int(math.Round(-49 * math.Log(1-sizes[i])))
		mu := paperRateMeans[mus[i]%len(paperRateMeans)]
		reqs[i] = httpapi.AllocationRequest{N: min(max(n, 2), 200), Mu: mu, Sigma: rhos[i] * mu}
	}
	// HeteroShare of the block's jobs become heterogeneous N=8 requests.
	for i := 0; i < int(math.Round(block*g.mix.HeteroShare)); i++ {
		demands := make([]httpapi.DemandSpec, 8)
		for v := range demands {
			mu := g.paperMus.draw(g.rng)
			demands[v] = httpapi.DemandSpec{Mu: mu, Sigma: g.rng.Float64() * mu}
		}
		reqs[i] = httpapi.AllocationRequest{Demands: demands}
	}
	return reqs
}

// PoissonSchedule returns the due times, as offsets from the start of
// the phase, of a Poisson arrival process at rate requests per second
// over the given duration.
func PoissonSchedule(seed uint64, rate float64, over time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= over {
			return due
		}
		due = append(due, d)
	}
}
