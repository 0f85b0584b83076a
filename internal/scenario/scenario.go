package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topology"
)

// Limits that Validate enforces so that Compile and the engine are
// bounded: every accepted scenario compiles without error and terminates.
const (
	maxTenants    = 5000
	maxMachines   = 5000
	maxTemplates  = 32
	maxSeconds    = 100000
	maxVMs        = 1000
	maxDrains     = 64
	maxFailovers  = 16
	maxMCSamples  = 200000
	maxConcurrent = 64
)

// Scenario is one declarative experiment: a datacenter, a tenant fleet,
// an optional chaos schedule, and the assertions the run must satisfy.
// See docs/SCENARIOS.md for the file format.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64
	Eps         float64
	Topology    TopoSpec
	Fleet       FleetSpec
	Chaos       *ChaosSpec
	Run         RunSpec
	Assert      AssertSpec
}

// TopoSpec selects the datacenter tree: the named preset or an explicit
// three-tier shape.
type TopoSpec struct {
	Preset          string // "paper" (5x10x20 machines, 4 slots) or ""
	Aggs            int
	TorsPerAgg      int
	MachinesPerRack int
	SlotsPerMachine int
	HostCapMbps     float64
	Oversub         float64
}

// FleetSpec generates the tenant population from weighted templates.
type FleetSpec struct {
	Tenants   int
	Arrival   ArrivalSpec
	Templates []Template
}

// ArrivalSpec shapes when tenants arrive.
type ArrivalSpec struct {
	// Pattern: instant | linear | exponential | wave | poisson.
	Pattern string
	// OverSeconds spreads linear/exponential/wave arrivals over [0, D].
	OverSeconds int
	// RatePerSecond is the Poisson arrival rate.
	RatePerSecond float64
	// Waves is the number of equal bursts for the wave pattern.
	Waves int
}

// Template is one weighted tenant class.
type Template struct {
	Name   string
	Weight float64
	N      SizeSpec
	// Demand is the per-VM stochastic demand; mutually exclusive with
	// Bandwidth.
	Demand *DemandSpec
	// Bandwidth > 0 makes this a deterministic VC tenant <N, B>.
	Bandwidth float64
	Hold      RangeSpec // uniform job duration in seconds
}

// SizeSpec draws the tenant's VM count: a fixed size, or an exponential
// with truncation.
type SizeSpec struct {
	Fixed int
	Mean  float64
	Min   int
	Max   int
}

// DemandSpec draws the per-VM demand distribution N(mu, sigma^2): either
// a fixed (mu, sigma), or mu picked from MuChoices with sigma = rho*mu.
type DemandSpec struct {
	Mu        float64
	Sigma     float64
	MuChoices []float64
	Rho       float64
}

// RangeSpec is a uniform integer range [Lo, Hi].
type RangeSpec struct {
	Lo, Hi int
}

// ChaosSpec is the seeded failure schedule.
type ChaosSpec struct {
	// Repair: after every fault the engine invokes the controller's
	// repair path, migrating displaced jobs; false kills them instead.
	Repair bool
	// Machines draws per-machine fail/restore renewal cycles.
	Machines *RenewalSpec
	// Links draws fail/restore cycles for the uplinks of nodes at Level.
	Links *LinkChaosSpec
	// Drains schedules zone maintenance: the uplink of the Index-th node
	// at Level fails at At and is restored Duration seconds later.
	Drains []DrainSpec
	// Failovers schedules controller failovers: at each listed second
	// the primary crashes and its hot standby is promoted. Admissions,
	// placements, and the guarantee must be unaffected.
	Failovers []int
}

// RenewalSpec is an exponential fail/restore renewal process.
type RenewalSpec struct {
	MTBFSeconds float64
	MTTRSeconds float64
	// Fraction of entities subject to chaos (default 1).
	Fraction float64
}

// LinkChaosSpec draws link failures at one tree level; Cascade also
// fails every link in the subtree below, with independently drawn
// staggered restores.
type LinkChaosSpec struct {
	RenewalSpec
	Level   int
	Cascade bool
}

// DrainSpec is one scheduled maintenance drain.
type DrainSpec struct {
	At       int
	Level    int
	Index    int
	Duration int
}

// RunSpec bounds the execution.
type RunSpec struct {
	MaxSeconds  int
	SampleEvery int
	// Concurrency > 1 submits same-second arrivals from that many
	// goroutines (admission-storm scenarios).
	Concurrency int
	// Shards > 0 runs the sharded control plane (one pod-local ledger and
	// WAL per aggregation subtree); it must equal the topology's agg
	// count. A chaos.failovers entry then crashes and recovers the whole
	// router — pod WALs plus the cross-pod intent log — instead of
	// switching to a hot standby.
	Shards int
	// ShardMode: "" (strict) | strict | fast; see internal/shard.
	ShardMode string
}

// AssertSpec is the declarative assertion block; nil / false fields are
// not checked.
type AssertSpec struct {
	MaxRejectionRate *float64
	MinAdmitted      *int
	MaxEvicted       *int
	MaxKilled        *int
	Guarantee        *GuaranteeSpec
	Conservation     bool
	DrainToEmpty     bool
}

// GuaranteeSpec checks the paper's Eq. 4 bound by Monte Carlo: at second
// At (default: the last arrival), sample every live stochastic job's
// per-VM demands and require each link's congestion frequency to stay
// within Eps + Margin.
type GuaranteeSpec struct {
	Samples int
	Margin  float64
	// Eps overrides the scenario eps for the assertion (a negative
	// control asserts a tighter eps than the controller admits at).
	Eps float64
	// At is the virtual second to measure at; negative means "after the
	// last arrival".
	At int
}

// Decode parses and strictly decodes a scenario document; unknown keys
// are errors. The result is not yet validated — call Validate.
func Decode(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	s := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// decoder walks the parsed tree, accumulating the first error.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

// obj coerces a parsed node to a mapping.
func (d *decoder) obj(v any, ctx string) map[string]any {
	if d.err != nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s: expected a mapping, got %T", ctx, v)
		return nil
	}
	return m
}

// take removes a key from the mapping, so checkUnknown can flag leftovers.
func take(m map[string]any, key string) (any, bool) {
	v, ok := m[key]
	if ok {
		delete(m, key)
	}
	return v, ok
}

func (d *decoder) checkUnknown(m map[string]any, ctx string) {
	if d.err != nil || len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.fail("%s: unknown key %q", ctx, keys[0])
}

func (d *decoder) str(m map[string]any, key, ctx string, dst *string) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	s, ok := v.(string)
	if !ok {
		d.fail("%s.%s: expected a string, got %T", ctx, key, v)
		return
	}
	*dst = s
}

func (d *decoder) integer(m map[string]any, key, ctx string, dst *int) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	i, ok := v.(int64)
	if !ok || int64(int(i)) != i {
		d.fail("%s.%s: expected an integer, got %v", ctx, key, v)
		return
	}
	*dst = int(i)
}

func (d *decoder) uint64v(m map[string]any, key, ctx string, dst *uint64) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	i, ok := v.(int64)
	if !ok || i < 0 {
		d.fail("%s.%s: expected a non-negative integer, got %v", ctx, key, v)
		return
	}
	*dst = uint64(i)
}

func (d *decoder) float(m map[string]any, key, ctx string, dst *float64) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	switch n := v.(type) {
	case int64:
		*dst = float64(n)
	case float64:
		*dst = n
	default:
		d.fail("%s.%s: expected a number, got %T", ctx, key, v)
	}
}

func (d *decoder) boolean(m map[string]any, key, ctx string, dst *bool) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	b, ok := v.(bool)
	if !ok {
		d.fail("%s.%s: expected a bool, got %T", ctx, key, v)
		return
	}
	*dst = b
}

func (d *decoder) floatList(m map[string]any, key, ctx string, dst *[]float64) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	list, ok := v.([]any)
	if !ok {
		d.fail("%s.%s: expected a list, got %T", ctx, key, v)
		return
	}
	out := make([]float64, len(list))
	for i, e := range list {
		switch n := e.(type) {
		case int64:
			out[i] = float64(n)
		case float64:
			out[i] = n
		default:
			d.fail("%s.%s[%d]: expected a number, got %T", ctx, key, i, e)
			return
		}
	}
	*dst = out
}

func (d *decoder) intList(m map[string]any, key, ctx string, dst *[]int) {
	v, ok := take(m, key)
	if !ok || d.err != nil {
		return
	}
	list, ok := v.([]any)
	if !ok {
		d.fail("%s.%s: expected a list, got %T", ctx, key, v)
		return
	}
	out := make([]int, len(list))
	for i, e := range list {
		n, ok := e.(int64)
		if !ok {
			d.fail("%s.%s[%d]: expected an integer, got %T", ctx, key, i, e)
			return
		}
		out[i] = int(n)
	}
	*dst = out
}

func (d *decoder) scenario(root any) *Scenario {
	m := d.obj(root, "document")
	if m == nil {
		return nil
	}
	s := &Scenario{Eps: 0.05}
	d.str(m, "name", "scenario", &s.Name)
	d.str(m, "description", "scenario", &s.Description)
	d.uint64v(m, "seed", "scenario", &s.Seed)
	d.float(m, "eps", "scenario", &s.Eps)
	if v, ok := take(m, "topology"); ok {
		d.topoSpec(v, &s.Topology)
	}
	if v, ok := take(m, "fleet"); ok {
		d.fleetSpec(v, &s.Fleet)
	}
	if v, ok := take(m, "chaos"); ok && v != nil {
		s.Chaos = &ChaosSpec{}
		d.chaosSpec(v, s.Chaos)
	}
	if v, ok := take(m, "run"); ok {
		d.runSpec(v, &s.Run)
	}
	if v, ok := take(m, "assert"); ok {
		d.assertSpec(v, &s.Assert)
	}
	d.checkUnknown(m, "scenario")
	return s
}

func (d *decoder) topoSpec(v any, t *TopoSpec) {
	m := d.obj(v, "topology")
	if m == nil {
		return
	}
	d.str(m, "preset", "topology", &t.Preset)
	d.integer(m, "aggs", "topology", &t.Aggs)
	d.integer(m, "tors_per_agg", "topology", &t.TorsPerAgg)
	d.integer(m, "machines_per_rack", "topology", &t.MachinesPerRack)
	d.integer(m, "slots_per_machine", "topology", &t.SlotsPerMachine)
	d.float(m, "host_cap_mbps", "topology", &t.HostCapMbps)
	d.float(m, "oversub", "topology", &t.Oversub)
	d.checkUnknown(m, "topology")
}

func (d *decoder) fleetSpec(v any, f *FleetSpec) {
	m := d.obj(v, "fleet")
	if m == nil {
		return
	}
	d.integer(m, "tenants", "fleet", &f.Tenants)
	if v, ok := take(m, "arrival"); ok {
		am := d.obj(v, "fleet.arrival")
		if am != nil {
			d.str(am, "pattern", "fleet.arrival", &f.Arrival.Pattern)
			d.integer(am, "over_seconds", "fleet.arrival", &f.Arrival.OverSeconds)
			d.float(am, "rate_per_second", "fleet.arrival", &f.Arrival.RatePerSecond)
			d.integer(am, "waves", "fleet.arrival", &f.Arrival.Waves)
			d.checkUnknown(am, "fleet.arrival")
		}
	}
	if v, ok := take(m, "templates"); ok {
		list, ok := v.([]any)
		if !ok {
			d.fail("fleet.templates: expected a list, got %T", v)
			return
		}
		f.Templates = make([]Template, len(list))
		for i, e := range list {
			d.template(e, fmt.Sprintf("fleet.templates[%d]", i), &f.Templates[i])
		}
	}
	d.checkUnknown(m, "fleet")
}

func (d *decoder) template(v any, ctx string, t *Template) {
	m := d.obj(v, ctx)
	if m == nil {
		return
	}
	t.Weight = 1
	d.str(m, "name", ctx, &t.Name)
	d.float(m, "weight", ctx, &t.Weight)
	if v, ok := take(m, "n"); ok {
		nm := d.obj(v, ctx+".n")
		if nm != nil {
			d.integer(nm, "fixed", ctx+".n", &t.N.Fixed)
			d.float(nm, "mean", ctx+".n", &t.N.Mean)
			d.integer(nm, "min", ctx+".n", &t.N.Min)
			d.integer(nm, "max", ctx+".n", &t.N.Max)
			d.checkUnknown(nm, ctx+".n")
		}
	}
	if v, ok := take(m, "demand"); ok {
		t.Demand = &DemandSpec{}
		dm := d.obj(v, ctx+".demand")
		if dm != nil {
			d.float(dm, "mu", ctx+".demand", &t.Demand.Mu)
			d.float(dm, "sigma", ctx+".demand", &t.Demand.Sigma)
			d.floatList(dm, "mu_choices", ctx+".demand", &t.Demand.MuChoices)
			d.float(dm, "rho", ctx+".demand", &t.Demand.Rho)
			d.checkUnknown(dm, ctx+".demand")
		}
	}
	d.float(m, "bandwidth", ctx, &t.Bandwidth)
	if v, ok := take(m, "hold"); ok {
		hm := d.obj(v, ctx+".hold")
		if hm != nil {
			d.integer(hm, "lo", ctx+".hold", &t.Hold.Lo)
			d.integer(hm, "hi", ctx+".hold", &t.Hold.Hi)
			d.checkUnknown(hm, ctx+".hold")
		}
	}
	d.checkUnknown(m, ctx)
}

func (d *decoder) renewal(v any, ctx string, r *RenewalSpec) {
	m := d.obj(v, ctx)
	if m == nil {
		return
	}
	r.Fraction = 1
	d.float(m, "mtbf", ctx, &r.MTBFSeconds)
	d.float(m, "mttr", ctx, &r.MTTRSeconds)
	d.float(m, "fraction", ctx, &r.Fraction)
	d.checkUnknown(m, ctx)
}

func (d *decoder) chaosSpec(v any, c *ChaosSpec) {
	m := d.obj(v, "chaos")
	if m == nil {
		return
	}
	d.boolean(m, "repair", "chaos", &c.Repair)
	if v, ok := take(m, "machines"); ok {
		c.Machines = &RenewalSpec{}
		d.renewal(v, "chaos.machines", c.Machines)
	}
	if v, ok := take(m, "links"); ok {
		c.Links = &LinkChaosSpec{}
		lm := d.obj(v, "chaos.links")
		if lm != nil {
			c.Links.Fraction = 1
			d.float(lm, "mtbf", "chaos.links", &c.Links.MTBFSeconds)
			d.float(lm, "mttr", "chaos.links", &c.Links.MTTRSeconds)
			d.float(lm, "fraction", "chaos.links", &c.Links.Fraction)
			d.integer(lm, "level", "chaos.links", &c.Links.Level)
			d.boolean(lm, "cascade", "chaos.links", &c.Links.Cascade)
			d.checkUnknown(lm, "chaos.links")
		}
	}
	if v, ok := take(m, "drains"); ok {
		list, ok := v.([]any)
		if !ok {
			d.fail("chaos.drains: expected a list, got %T", v)
			return
		}
		c.Drains = make([]DrainSpec, len(list))
		for i, e := range list {
			ctx := fmt.Sprintf("chaos.drains[%d]", i)
			dm := d.obj(e, ctx)
			if dm == nil {
				return
			}
			d.integer(dm, "at", ctx, &c.Drains[i].At)
			d.integer(dm, "level", ctx, &c.Drains[i].Level)
			d.integer(dm, "index", ctx, &c.Drains[i].Index)
			d.integer(dm, "duration", ctx, &c.Drains[i].Duration)
			d.checkUnknown(dm, ctx)
		}
	}
	d.intList(m, "failovers", "chaos", &c.Failovers)
	d.checkUnknown(m, "chaos")
}

func (d *decoder) runSpec(v any, r *RunSpec) {
	m := d.obj(v, "run")
	if m == nil {
		return
	}
	d.integer(m, "max_seconds", "run", &r.MaxSeconds)
	d.integer(m, "sample_every", "run", &r.SampleEvery)
	d.integer(m, "concurrency", "run", &r.Concurrency)
	d.integer(m, "shards", "run", &r.Shards)
	d.str(m, "shard_mode", "run", &r.ShardMode)
	d.checkUnknown(m, "run")
}

func (d *decoder) assertSpec(v any, a *AssertSpec) {
	m := d.obj(v, "assert")
	if m == nil {
		return
	}
	if _, ok := m["max_rejection_rate"]; ok {
		a.MaxRejectionRate = new(float64)
		d.float(m, "max_rejection_rate", "assert", a.MaxRejectionRate)
	}
	if _, ok := m["min_admitted"]; ok {
		a.MinAdmitted = new(int)
		d.integer(m, "min_admitted", "assert", a.MinAdmitted)
	}
	if _, ok := m["max_evicted"]; ok {
		a.MaxEvicted = new(int)
		d.integer(m, "max_evicted", "assert", a.MaxEvicted)
	}
	if _, ok := m["max_killed"]; ok {
		a.MaxKilled = new(int)
		d.integer(m, "max_killed", "assert", a.MaxKilled)
	}
	if v, ok := take(m, "guarantee"); ok {
		a.Guarantee = &GuaranteeSpec{Samples: 2000, Margin: 0.03, At: -1}
		gm := d.obj(v, "assert.guarantee")
		if gm != nil {
			d.integer(gm, "samples", "assert.guarantee", &a.Guarantee.Samples)
			d.float(gm, "margin", "assert.guarantee", &a.Guarantee.Margin)
			d.float(gm, "eps", "assert.guarantee", &a.Guarantee.Eps)
			d.integer(gm, "at", "assert.guarantee", &a.Guarantee.At)
			d.checkUnknown(gm, "assert.guarantee")
		}
	}
	d.boolean(m, "conservation", "assert", &a.Conservation)
	d.boolean(m, "drain_to_empty", "assert", &a.DrainToEmpty)
	d.checkUnknown(m, "assert")
}

// TopoConfig resolves the topology spec to builder dimensions.
func (t TopoSpec) TopoConfig() (topology.ThreeTierConfig, error) {
	switch t.Preset {
	case "paper":
		return topology.PaperConfig(), nil
	case "":
		cfg := topology.ThreeTierConfig{
			Aggs: t.Aggs, ToRsPerAgg: t.TorsPerAgg,
			MachinesPerRack: t.MachinesPerRack, SlotsPerMachine: t.SlotsPerMachine,
			HostCap: t.HostCapMbps, Oversub: t.Oversub,
		}
		return cfg, nil
	default:
		return topology.ThreeTierConfig{}, fmt.Errorf("scenario: unknown topology preset %q", t.Preset)
	}
}

// machineCount returns the machines implied by the spec (0 on error).
func (t TopoSpec) machineCount() int {
	cfg, err := t.TopoConfig()
	if err != nil {
		return 0
	}
	return cfg.Aggs * cfg.ToRsPerAgg * cfg.MachinesPerRack
}

// nodesAtLevel returns how many nodes the three-tier tree has at the
// given level (machines = 0, ToRs = 1, aggs = 2, root = 3).
func (t TopoSpec) nodesAtLevel(level int) int {
	cfg, err := t.TopoConfig()
	if err != nil {
		return 0
	}
	switch level {
	case 0:
		return cfg.Aggs * cfg.ToRsPerAgg * cfg.MachinesPerRack
	case 1:
		return cfg.Aggs * cfg.ToRsPerAgg
	case 2:
		return cfg.Aggs
	case 3:
		return 1
	default:
		return 0
	}
}

// Validate checks the scenario against the format's bounds. It is strict
// enough that Compile succeeds and the engine terminates on every
// scenario Validate accepts — "validate rejects what run would reject".
func (s *Scenario) Validate() error {
	if s.Name == "" || len(s.Name) > 64 {
		return fmt.Errorf("scenario: name must be 1..64 characters")
	}
	if !(s.Eps > 0 && s.Eps < 0.5) {
		return fmt.Errorf("scenario: eps %v outside (0, 0.5)", s.Eps)
	}
	cfg, err := s.Topology.TopoConfig()
	if err != nil {
		return err
	}
	if cfg.Aggs < 1 || cfg.ToRsPerAgg < 1 || cfg.MachinesPerRack < 1 {
		return fmt.Errorf("scenario: topology dimensions must be >= 1")
	}
	machines := cfg.Aggs * cfg.ToRsPerAgg * cfg.MachinesPerRack
	if machines > maxMachines {
		return fmt.Errorf("scenario: %d machines exceeds %d", machines, maxMachines)
	}
	if cfg.SlotsPerMachine < 1 || cfg.SlotsPerMachine > 64 {
		return fmt.Errorf("scenario: slots_per_machine %d outside [1, 64]", cfg.SlotsPerMachine)
	}
	if !(cfg.HostCap > 0) || math.IsInf(cfg.HostCap, 0) {
		return fmt.Errorf("scenario: host_cap_mbps %v must be positive and finite", cfg.HostCap)
	}
	if !(cfg.Oversub >= 1) || math.IsInf(cfg.Oversub, 0) {
		return fmt.Errorf("scenario: oversub %v must be >= 1 and finite", cfg.Oversub)
	}
	if err := s.validateRun(); err != nil {
		return err
	}
	if err := s.validateFleet(); err != nil {
		return err
	}
	if err := s.validateChaos(); err != nil {
		return err
	}
	return s.validateAssert()
}

func (s *Scenario) validateRun() error {
	r := s.Run
	if r.MaxSeconds < 1 || r.MaxSeconds > maxSeconds {
		return fmt.Errorf("scenario: run.max_seconds %d outside [1, %d]", r.MaxSeconds, maxSeconds)
	}
	if r.SampleEvery < 0 || r.SampleEvery > maxSeconds {
		return fmt.Errorf("scenario: run.sample_every %d outside [0, %d]", r.SampleEvery, maxSeconds)
	}
	if r.Concurrency < 0 || r.Concurrency > maxConcurrent {
		return fmt.Errorf("scenario: run.concurrency %d outside [0, %d]", r.Concurrency, maxConcurrent)
	}
	switch r.ShardMode {
	case "", "strict", "fast":
	default:
		return fmt.Errorf("scenario: run.shard_mode %q not strict|fast", r.ShardMode)
	}
	if r.Shards < 0 {
		return fmt.Errorf("scenario: run.shards %d negative", r.Shards)
	}
	if r.Shards == 0 {
		if r.ShardMode != "" {
			return fmt.Errorf("scenario: run.shard_mode requires run.shards")
		}
		return nil
	}
	if cfg, err := s.Topology.TopoConfig(); err == nil && r.Shards != cfg.Aggs {
		return fmt.Errorf("scenario: run.shards %d must equal the topology's %d aggs (one shard per pod)", r.Shards, cfg.Aggs)
	}
	return nil
}

func (s *Scenario) validateFleet() error {
	f := s.Fleet
	if f.Tenants < 1 || f.Tenants > maxTenants {
		return fmt.Errorf("scenario: fleet.tenants %d outside [1, %d]", f.Tenants, maxTenants)
	}
	switch f.Arrival.Pattern {
	case "instant":
	case "linear", "exponential", "wave":
		if f.Arrival.OverSeconds < 1 || f.Arrival.OverSeconds >= s.Run.MaxSeconds {
			return fmt.Errorf("scenario: fleet.arrival.over_seconds %d outside [1, max_seconds)", f.Arrival.OverSeconds)
		}
		if f.Arrival.Pattern == "wave" && (f.Arrival.Waves < 1 || f.Arrival.Waves > f.Tenants) {
			return fmt.Errorf("scenario: fleet.arrival.waves %d outside [1, tenants]", f.Arrival.Waves)
		}
	case "poisson":
		if !(f.Arrival.RatePerSecond > 0) || math.IsInf(f.Arrival.RatePerSecond, 0) {
			return fmt.Errorf("scenario: fleet.arrival.rate_per_second %v must be positive and finite", f.Arrival.RatePerSecond)
		}
	default:
		return fmt.Errorf("scenario: fleet.arrival.pattern %q not instant|linear|exponential|wave|poisson", f.Arrival.Pattern)
	}
	if len(f.Templates) == 0 || len(f.Templates) > maxTemplates {
		return fmt.Errorf("scenario: fleet.templates must have 1..%d entries", maxTemplates)
	}
	for i, t := range f.Templates {
		if err := validateTemplate(t, s.Run.MaxSeconds); err != nil {
			return fmt.Errorf("scenario: fleet.templates[%d] (%s): %w", i, t.Name, err)
		}
	}
	return nil
}

func validateTemplate(t Template, runSeconds int) error {
	if t.Name == "" || len(t.Name) > 64 {
		return fmt.Errorf("name must be 1..64 characters")
	}
	if !(t.Weight > 0) || math.IsInf(t.Weight, 0) {
		return fmt.Errorf("weight %v must be positive and finite", t.Weight)
	}
	n := t.N
	switch {
	case n.Fixed != 0:
		if n.Fixed < 1 || n.Fixed > maxVMs {
			return fmt.Errorf("n.fixed %d outside [1, %d]", n.Fixed, maxVMs)
		}
		if n.Mean != 0 || n.Min != 0 || n.Max != 0 {
			return fmt.Errorf("n.fixed excludes n.mean/min/max")
		}
	default:
		if !(n.Mean > 0) || math.IsInf(n.Mean, 0) {
			return fmt.Errorf("n.mean %v must be positive and finite", n.Mean)
		}
		if n.Min < 1 || n.Max < n.Min || n.Max > maxVMs {
			return fmt.Errorf("n range [%d, %d] invalid (1 <= min <= max <= %d)", n.Min, n.Max, maxVMs)
		}
	}
	stochastic := t.Demand != nil
	deterministic := t.Bandwidth != 0
	if stochastic == deterministic {
		return fmt.Errorf("exactly one of demand and bandwidth must be set")
	}
	if deterministic && (!(t.Bandwidth > 0) || math.IsInf(t.Bandwidth, 0)) {
		return fmt.Errorf("bandwidth %v must be positive and finite", t.Bandwidth)
	}
	if stochastic {
		dm := t.Demand
		if len(dm.MuChoices) > 0 {
			if dm.Mu != 0 || dm.Sigma != 0 {
				return fmt.Errorf("demand.mu_choices excludes demand.mu/sigma")
			}
			if len(dm.MuChoices) > 64 {
				return fmt.Errorf("demand.mu_choices has %d entries, max 64", len(dm.MuChoices))
			}
			for _, mu := range dm.MuChoices {
				if !(mu >= 0) || math.IsInf(mu, 0) {
					return fmt.Errorf("demand.mu_choices entry %v must be >= 0 and finite", mu)
				}
			}
			if !(dm.Rho >= 0 && dm.Rho <= 4) {
				return fmt.Errorf("demand.rho %v outside [0, 4]", dm.Rho)
			}
		} else {
			if !(dm.Mu >= 0) || math.IsInf(dm.Mu, 0) {
				return fmt.Errorf("demand.mu %v must be >= 0 and finite", dm.Mu)
			}
			if !(dm.Sigma >= 0) || math.IsInf(dm.Sigma, 0) {
				return fmt.Errorf("demand.sigma %v must be >= 0 and finite", dm.Sigma)
			}
			if dm.Rho != 0 {
				return fmt.Errorf("demand.rho requires demand.mu_choices")
			}
		}
	}
	if t.Hold.Lo < 1 || t.Hold.Hi < t.Hold.Lo || t.Hold.Hi > runSeconds {
		return fmt.Errorf("hold [%d, %d] invalid (1 <= lo <= hi <= max_seconds)", t.Hold.Lo, t.Hold.Hi)
	}
	return nil
}

func validateRenewal(r RenewalSpec, what string) error {
	if !(r.MTBFSeconds >= 1) || math.IsInf(r.MTBFSeconds, 0) {
		return fmt.Errorf("scenario: %s.mtbf %v must be >= 1 and finite", what, r.MTBFSeconds)
	}
	if !(r.MTTRSeconds >= 1) || math.IsInf(r.MTTRSeconds, 0) {
		return fmt.Errorf("scenario: %s.mttr %v must be >= 1 and finite", what, r.MTTRSeconds)
	}
	if !(r.Fraction >= 0 && r.Fraction <= 1) {
		return fmt.Errorf("scenario: %s.fraction %v outside [0, 1]", what, r.Fraction)
	}
	return nil
}

func (s *Scenario) validateChaos() error {
	c := s.Chaos
	if c == nil {
		return nil
	}
	if c.Machines != nil {
		if err := validateRenewal(*c.Machines, "chaos.machines"); err != nil {
			return err
		}
	}
	if c.Links != nil {
		if err := validateRenewal(c.Links.RenewalSpec, "chaos.links"); err != nil {
			return err
		}
		if c.Links.Level < 1 || c.Links.Level > 2 {
			return fmt.Errorf("scenario: chaos.links.level %d outside [1, 2]", c.Links.Level)
		}
	}
	if len(c.Drains) > maxDrains {
		return fmt.Errorf("scenario: %d drains exceeds %d", len(c.Drains), maxDrains)
	}
	for i, dr := range c.Drains {
		if dr.At < 0 || dr.At > s.Run.MaxSeconds {
			return fmt.Errorf("scenario: chaos.drains[%d].at %d outside [0, max_seconds]", i, dr.At)
		}
		if dr.Duration < 1 || dr.At+dr.Duration > maxSeconds*2 {
			return fmt.Errorf("scenario: chaos.drains[%d].duration %d invalid", i, dr.Duration)
		}
		if dr.Level < 1 || dr.Level > 2 {
			return fmt.Errorf("scenario: chaos.drains[%d].level %d outside [1, 2]", i, dr.Level)
		}
		if n := s.Topology.nodesAtLevel(dr.Level); dr.Index < 0 || dr.Index >= n {
			return fmt.Errorf("scenario: chaos.drains[%d].index %d outside [0, %d)", i, dr.Index, n)
		}
	}
	if len(c.Failovers) > maxFailovers {
		return fmt.Errorf("scenario: %d failovers exceeds %d", len(c.Failovers), maxFailovers)
	}
	for i, at := range c.Failovers {
		if at < 0 || at > s.Run.MaxSeconds {
			return fmt.Errorf("scenario: chaos.failovers[%d] %d outside [0, max_seconds]", i, at)
		}
		if i > 0 && at <= c.Failovers[i-1] {
			return fmt.Errorf("scenario: chaos.failovers must be strictly increasing (entry %d: %d)", i, at)
		}
	}
	return nil
}

func (s *Scenario) validateAssert() error {
	a := s.Assert
	if a.MaxRejectionRate != nil && !(*a.MaxRejectionRate >= 0 && *a.MaxRejectionRate <= 1) {
		return fmt.Errorf("scenario: assert.max_rejection_rate %v outside [0, 1]", *a.MaxRejectionRate)
	}
	if a.MinAdmitted != nil && (*a.MinAdmitted < 0 || *a.MinAdmitted > s.Fleet.Tenants) {
		return fmt.Errorf("scenario: assert.min_admitted %d outside [0, tenants]", *a.MinAdmitted)
	}
	if a.MaxEvicted != nil && *a.MaxEvicted < 0 {
		return fmt.Errorf("scenario: assert.max_evicted %d negative", *a.MaxEvicted)
	}
	if a.MaxKilled != nil && *a.MaxKilled < 0 {
		return fmt.Errorf("scenario: assert.max_killed %d negative", *a.MaxKilled)
	}
	if g := a.Guarantee; g != nil {
		if g.Samples < 100 || g.Samples > maxMCSamples {
			return fmt.Errorf("scenario: assert.guarantee.samples %d outside [100, %d]", g.Samples, maxMCSamples)
		}
		if !(g.Margin > 0 && g.Margin <= 0.5) {
			return fmt.Errorf("scenario: assert.guarantee.margin %v outside (0, 0.5]", g.Margin)
		}
		if g.Eps != 0 && !(g.Eps > 0 && g.Eps < 1) {
			return fmt.Errorf("scenario: assert.guarantee.eps %v outside (0, 1)", g.Eps)
		}
		if g.At < -1 || g.At > s.Run.MaxSeconds {
			return fmt.Errorf("scenario: assert.guarantee.at %d outside [-1, max_seconds]", g.At)
		}
	}
	return nil
}
