package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// maxChaosEvents caps the compiled fault schedule; schedules beyond the
// cap are truncated deterministically (earliest events win) and the
// truncation is reported, never silent.
const maxChaosEvents = 100000

// Plan is a fully precomputed scenario execution: the topology, every
// tenant with its arrival time and admission request, and the complete
// fault schedule. Everything random is drawn here, before the run, from
// the scenario seed — the engine that executes a plan makes no random
// choices of its own, so the same plan yields the same outcome on every
// backend.
type Plan struct {
	Scenario *Scenario
	Topo     *topology.Topology
	Seed     uint64
	// Jobs sorted by (ArriveAt, ID).
	Jobs []PlannedJob
	// Events sorted by (At, Kind, Node).
	Events []Event
	// TruncatedEvents counts chaos events dropped by the schedule cap.
	TruncatedEvents int
	// GuaranteeAt is the resolved Monte Carlo measurement second
	// (-1 when the scenario asserts no guarantee).
	GuaranteeAt int
}

// PlannedJob is one tenant: when it arrives, how long it holds its VMs,
// and the exact admission request it submits.
type PlannedJob struct {
	ID       int // dense index, also the submission order tiebreak
	Template int
	ArriveAt int
	Hold     int
	Req      core.Homogeneous
}

// EventKind enumerates fault-schedule operations.
type EventKind int

const (
	EvFailMachine EventKind = iota
	EvRestoreMachine
	EvFailLink
	EvRestoreLink
	// EvFailover crashes the controller's primary and promotes its
	// hot standby; the datacenter state must survive bit-identically.
	EvFailover
)

func (k EventKind) String() string {
	switch k {
	case EvFailMachine:
		return "fail-machine"
	case EvRestoreMachine:
		return "restore-machine"
	case EvFailLink:
		return "fail-link"
	case EvRestoreLink:
		return "restore-link"
	case EvFailover:
		return "failover"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled fault or restore.
type Event struct {
	At   int
	Kind EventKind
	Node topology.NodeID
	// Drain marks maintenance-drain events (reported separately from
	// random chaos).
	Drain bool
}

// Compile resolves the scenario into a deterministic plan using the
// scenario's seed. Validate must have passed; Compile fails only on
// specs Validate rejects.
func (s *Scenario) Compile() (*Plan, error) {
	return s.CompileSeeded(s.Seed)
}

// CompileSeeded compiles with an overriding seed (the svcscn -seed flag).
func (s *Scenario) CompileSeeded(seed uint64) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, err := s.Topology.TopoConfig()
	if err != nil {
		return nil, err
	}
	topo, err := topology.NewThreeTier(cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{Scenario: s, Topo: topo, Seed: seed, GuaranteeAt: -1}

	// Independent child streams per concern, derived in a fixed order:
	// adding chaos to a scenario must not reshuffle its fleet.
	root := stats.NewRand(seed)
	fleetRng := root.Child()
	chaosRng := root.Child()
	if err := p.compileFleet(fleetRng); err != nil {
		return nil, err
	}
	p.compileChaos(chaosRng)

	if g := s.Assert.Guarantee; g != nil {
		p.GuaranteeAt = g.At
		if p.GuaranteeAt < 0 {
			p.GuaranteeAt = p.lastArrival()
		}
	}
	return p, nil
}

// lastArrival returns the latest job arrival second (0 for no jobs).
func (p *Plan) lastArrival() int {
	last := 0
	for _, j := range p.Jobs {
		if j.ArriveAt > last {
			last = j.ArriveAt
		}
	}
	return last
}

// compileFleet draws every tenant: template by weight, size, demand,
// hold, and arrival second.
func (p *Plan) compileFleet(rng *stats.Rand) error {
	s := p.Scenario
	n := s.Fleet.Tenants
	arrivals := compileArrivals(s.Fleet.Arrival, n, s.Run.MaxSeconds, rng.Child())
	weights := make([]float64, len(s.Fleet.Templates))
	total := 0.0
	for i, t := range s.Fleet.Templates {
		total += t.Weight
		weights[i] = total
	}
	p.Jobs = make([]PlannedJob, n)
	for i := range p.Jobs {
		// One template draw plus a per-job child stream: template
		// parameters never consume from the fleet stream, so adding a
		// field to one template leaves the other tenants' draws intact.
		w := rng.Float64() * total
		ti := sort.SearchFloat64s(weights, w)
		if ti >= len(weights) {
			ti = len(weights) - 1
		}
		jr := rng.Child()
		t := s.Fleet.Templates[ti]
		req, err := compileRequest(t, jr)
		if err != nil {
			return err
		}
		hold := jr.UniformInt(t.Hold.Lo, t.Hold.Hi)
		arrive := arrivals[i]
		// Clamp so every job finishes inside the run window; the engine
		// therefore always terminates by max_seconds.
		if arrive+hold > s.Run.MaxSeconds {
			arrive = s.Run.MaxSeconds - hold
			if arrive < 0 {
				arrive = 0
				hold = s.Run.MaxSeconds
			}
		}
		p.Jobs[i] = PlannedJob{ID: i, Template: ti, ArriveAt: arrive, Hold: hold, Req: req}
	}
	sort.Slice(p.Jobs, func(a, b int) bool {
		if p.Jobs[a].ArriveAt != p.Jobs[b].ArriveAt {
			return p.Jobs[a].ArriveAt < p.Jobs[b].ArriveAt
		}
		return p.Jobs[a].ID < p.Jobs[b].ID
	})
	return nil
}

// compileRequest draws one tenant's admission request from its template.
func compileRequest(t Template, rng *stats.Rand) (core.Homogeneous, error) {
	n := t.N.Fixed
	if n == 0 {
		n = int(math.Round(rng.Exp(t.N.Mean)))
		if n < t.N.Min {
			n = t.N.Min
		}
		if n > t.N.Max {
			n = t.N.Max
		}
	}
	if t.Bandwidth > 0 {
		return core.NewDeterministic(n, t.Bandwidth)
	}
	dm := t.Demand
	mu, sigma := dm.Mu, dm.Sigma
	if len(dm.MuChoices) > 0 {
		mu = rng.Pick(dm.MuChoices)
		sigma = dm.Rho * mu
	}
	return core.NewHomogeneous(n, stats.Normal{Mu: mu, Sigma: sigma})
}

// compileArrivals returns one arrival second per tenant, by pattern.
func compileArrivals(a ArrivalSpec, n, limit int, rng *stats.Rand) []int {
	out := make([]int, n)
	switch a.Pattern {
	case "instant":
		// all zero
	case "linear":
		for i := range out {
			out[i] = i * a.OverSeconds / n
		}
	case "exponential":
		// Doubling batches: 1, 2, 4, ... tenants at evenly spaced steps
		// across the window — a ramping launch.
		batches := 1
		for c := 1; c < n; c *= 2 {
			batches++
		}
		i, batch, size := 0, 0, 1
		for i < n {
			at := batch * a.OverSeconds / batches
			for k := 0; k < size && i < n; k++ {
				out[i] = at
				i++
			}
			batch++
			size *= 2
		}
	case "wave":
		for i := range out {
			wave := i * a.Waves / n
			out[i] = wave * a.OverSeconds / a.Waves
		}
	case "poisson":
		t := 0.0
		for i := range out {
			t += rng.Exp(1 / a.RatePerSecond)
			if t > float64(limit) {
				t = float64(limit)
			}
			out[i] = int(t)
		}
	}
	return out
}

// compileChaos draws the fault schedule: per-machine and per-link
// renewal cycles, cascading subtree failures, and scheduled drains.
func (p *Plan) compileChaos(rng *stats.Rand) {
	c := p.Scenario.Chaos
	if c == nil {
		return
	}
	limit := p.Scenario.Run.MaxSeconds
	var events []Event
	machineRng := rng.Child()
	linkRng := rng.Child()
	if c.Machines != nil {
		for _, m := range p.Topo.Machines() {
			// A child stream per machine, drawn in NodeID order: one
			// machine's schedule does not depend on how many events its
			// neighbours drew.
			mr := machineRng.Child()
			if c.Machines.Fraction < 1 && mr.Float64() >= c.Machines.Fraction {
				continue
			}
			events = renewalEvents(events, mr, *c.Machines, limit,
				EvFailMachine, EvRestoreMachine, m, nil)
		}
	}
	if c.Links != nil {
		for _, node := range p.Topo.AtLevel(c.Links.Level) {
			lr := linkRng.Child()
			if c.Links.Fraction < 1 && lr.Float64() >= c.Links.Fraction {
				continue
			}
			var cascade []topology.LinkID
			if c.Links.Cascade {
				cascade = p.Topo.LinksUnder(nil, node)
			}
			events = renewalEvents(events, lr, c.Links.RenewalSpec, limit,
				EvFailLink, EvRestoreLink, node, cascade)
		}
	}
	for _, dr := range c.Drains {
		nodes := p.Topo.AtLevel(dr.Level)
		node := nodes[dr.Index]
		events = append(events, Event{At: dr.At, Kind: EvFailLink, Node: node, Drain: true})
		if restore := dr.At + dr.Duration; restore <= limit {
			events = append(events, Event{At: restore, Kind: EvRestoreLink, Node: node, Drain: true})
		}
	}
	for _, at := range c.Failovers {
		events = append(events, Event{At: at, Kind: EvFailover})
	}
	sortEvents(events)
	if len(events) > maxChaosEvents {
		p.TruncatedEvents = len(events) - maxChaosEvents
		events = events[:maxChaosEvents]
	}
	p.Events = events
}

// renewalEvents lays one entity's stats.Renewal cycles out as events up
// to the horizon; the process's phases last at least a second, so the
// loop terminates. Cascade lists the subtree links that fail with the
// entity and restore independently (staggered, each with its own repair
// time from the entity's stream).
func renewalEvents(events []Event, rng *stats.Rand, r RenewalSpec, limit int,
	fail, restore EventKind, node topology.NodeID, cascade []topology.LinkID) []Event {
	proc := stats.NewRenewal(rng, r.MTBFSeconds, r.MTTRSeconds)
	for {
		t, failed := proc.Next()
		if t > limit {
			return events
		}
		if !failed {
			events = append(events, Event{At: t, Kind: restore, Node: node})
			continue
		}
		events = append(events, Event{At: t, Kind: fail, Node: node})
		for _, l := range cascade {
			events = append(events, Event{At: t, Kind: fail, Node: l})
			if back := t + proc.Downtime(); back <= limit {
				events = append(events, Event{At: back, Kind: restore, Node: l})
			}
		}
	}
}

// sortEvents orders the schedule by (At, Kind, Node): restores before
// failures at the same second would resurrect state the failure is about
// to take down, so failures (lower Kind values sort via explicit rank)
// apply first, then restores, each in NodeID order. Failovers run last:
// the promoted controller must carry the second's settled fault state.
func sortEvents(events []Event) {
	rank := func(k EventKind) int {
		switch k {
		case EvFailMachine, EvFailLink:
			return 0
		case EvFailover:
			return 2
		default:
			return 1
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if ra, rb := rank(a.Kind), rank(b.Kind); ra != rb {
			return ra < rb
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
}
