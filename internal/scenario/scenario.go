package scenario

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

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
	Name        string     `yaml:"name"`
	Description string     `yaml:"description"`
	Seed        uint64     `yaml:"seed"`
	Eps         float64    `yaml:"eps"`
	Topology    TopoSpec   `yaml:"topology"`
	Fleet       FleetSpec  `yaml:"fleet"`
	Chaos       *ChaosSpec `yaml:"chaos,nullable"`
	Run         RunSpec    `yaml:"run"`
	Assert      AssertSpec `yaml:"assert"`
}

func (s *Scenario) setDefaults() { s.Eps = 0.05 }

// TopoSpec selects the datacenter tree: the named preset or an explicit
// three-tier shape.
type TopoSpec struct {
	Preset          string  `yaml:"preset"` // "paper" (5x10x20 machines, 4 slots) or ""
	Aggs            int     `yaml:"aggs"`
	TorsPerAgg      int     `yaml:"tors_per_agg"`
	MachinesPerRack int     `yaml:"machines_per_rack"`
	SlotsPerMachine int     `yaml:"slots_per_machine"`
	HostCapMbps     float64 `yaml:"host_cap_mbps"`
	Oversub         float64 `yaml:"oversub"`
}

// FleetSpec generates the tenant population from weighted templates.
type FleetSpec struct {
	Tenants   int         `yaml:"tenants"`
	Arrival   ArrivalSpec `yaml:"arrival"`
	Templates []Template  `yaml:"templates"`
}

// ArrivalSpec shapes when tenants arrive.
type ArrivalSpec struct {
	// Pattern: instant | linear | exponential | wave | poisson.
	Pattern string `yaml:"pattern"`
	// OverSeconds spreads linear/exponential/wave arrivals over [0, D].
	OverSeconds int `yaml:"over_seconds"`
	// RatePerSecond is the Poisson arrival rate.
	RatePerSecond float64 `yaml:"rate_per_second"`
	// Waves is the number of equal bursts for the wave pattern.
	Waves int `yaml:"waves"`
}

// Template is one weighted tenant class.
type Template struct {
	Name   string   `yaml:"name"`
	Weight float64  `yaml:"weight"`
	N      SizeSpec `yaml:"n"`
	// Demand is the per-VM stochastic demand; mutually exclusive with
	// Bandwidth.
	Demand *DemandSpec `yaml:"demand"`
	// Bandwidth > 0 makes this a deterministic VC tenant <N, B>.
	Bandwidth float64   `yaml:"bandwidth"`
	Hold      RangeSpec `yaml:"hold"` // uniform job duration in seconds
}

func (t *Template) setDefaults() { t.Weight = 1 }

// SizeSpec draws the tenant's VM count: a fixed size, or an exponential
// with truncation.
type SizeSpec struct {
	Fixed int     `yaml:"fixed"`
	Mean  float64 `yaml:"mean"`
	Min   int     `yaml:"min"`
	Max   int     `yaml:"max"`
}

// DemandSpec draws the per-VM demand distribution N(mu, sigma^2): either
// a fixed (mu, sigma), or mu picked from MuChoices with sigma = rho*mu.
type DemandSpec struct {
	Mu        float64   `yaml:"mu"`
	Sigma     float64   `yaml:"sigma"`
	MuChoices []float64 `yaml:"mu_choices"`
	Rho       float64   `yaml:"rho"`
}

// RangeSpec is a uniform integer range [Lo, Hi].
type RangeSpec struct {
	Lo int `yaml:"lo"`
	Hi int `yaml:"hi"`
}

// ChaosSpec is the seeded failure schedule.
type ChaosSpec struct {
	// Repair: after every fault the engine invokes the controller's
	// repair path, migrating displaced jobs; false kills them instead.
	Repair bool `yaml:"repair"`
	// Machines draws per-machine fail/restore renewal cycles.
	Machines *RenewalSpec `yaml:"machines"`
	// Links draws fail/restore cycles for the uplinks of nodes at Level.
	Links *LinkChaosSpec `yaml:"links"`
	// Drains schedules zone maintenance: the uplink of the Index-th node
	// at Level fails at At and is restored Duration seconds later.
	Drains []DrainSpec `yaml:"drains"`
	// Failovers schedules controller failovers: at each listed second
	// the primary crashes and its hot standby is promoted. Admissions,
	// placements, and the guarantee must be unaffected.
	Failovers []int `yaml:"failovers"`
}

// RenewalSpec is an exponential fail/restore renewal process.
type RenewalSpec struct {
	MTBFSeconds float64 `yaml:"mtbf"`
	MTTRSeconds float64 `yaml:"mttr"`
	// Fraction of entities subject to chaos (default 1).
	Fraction float64 `yaml:"fraction"`
}

// LinkChaosSpec inherits the default through the embedding.
func (r *RenewalSpec) setDefaults() { r.Fraction = 1 }

// LinkChaosSpec draws link failures at one tree level; Cascade also
// fails every link in the subtree below, with independently drawn
// staggered restores.
type LinkChaosSpec struct {
	RenewalSpec
	Level   int  `yaml:"level"`
	Cascade bool `yaml:"cascade"`
}

// DrainSpec is one scheduled maintenance drain.
type DrainSpec struct {
	At       int `yaml:"at"`
	Level    int `yaml:"level"`
	Index    int `yaml:"index"`
	Duration int `yaml:"duration"`
}

// RunSpec bounds the execution.
type RunSpec struct {
	MaxSeconds  int `yaml:"max_seconds"`
	SampleEvery int `yaml:"sample_every"`
	// Concurrency > 1 submits same-second arrivals from that many
	// goroutines (admission-storm scenarios).
	Concurrency int `yaml:"concurrency"`
	// Shards > 0 runs the sharded control plane (one pod-local ledger and
	// WAL per aggregation subtree; see internal/shard); it must equal the
	// topology's agg count. A chaos.failovers entry then crashes and
	// recovers the whole router from its pod WALs instead of switching to
	// a hot standby.
	Shards int `yaml:"shards"`
}

// AssertSpec is the declarative assertion block; nil / false fields are
// not checked.
type AssertSpec struct {
	MaxRejectionRate *float64       `yaml:"max_rejection_rate"`
	MinAdmitted      *int           `yaml:"min_admitted"`
	MaxEvicted       *int           `yaml:"max_evicted"`
	MaxKilled        *int           `yaml:"max_killed"`
	Guarantee        *GuaranteeSpec `yaml:"guarantee"`
	Conservation     bool           `yaml:"conservation"`
	DrainToEmpty     bool           `yaml:"drain_to_empty"`
}

// GuaranteeSpec checks the paper's Eq. 4 bound by Monte Carlo: at second
// At (default: the last arrival), sample every live stochastic job's
// per-VM demands and require each link's congestion frequency to stay
// within Eps + Margin.
type GuaranteeSpec struct {
	Samples int     `yaml:"samples"`
	Margin  float64 `yaml:"margin"`
	// Eps overrides the scenario eps for the assertion (a negative
	// control asserts a tighter eps than the controller admits at).
	Eps float64 `yaml:"eps"`
	// At is the virtual second to measure at; negative means "after the
	// last arrival".
	At int `yaml:"at"`
}

func (g *GuaranteeSpec) setDefaults() { *g = GuaranteeSpec{Samples: 2000, Margin: 0.03, At: -1} }

// Decode parses and strictly decodes a scenario document. The format's
// keys are the `yaml` tags on the spec structs above and nothing else: a
// struct takes a mapping of exactly its tagged fields (an embedded
// struct's fields are its own), a slice a list, a pointer whatever it
// points to — allocated only when its key is written, which is how an
// assertion stays "checked only if written" — and a scalar a scalar. A key
// no field carries, or a node of the wrong kind, is an error naming its
// path. The result is not yet validated — call Validate.
func Decode(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	s := &Scenario{}
	if err := decodeInto(reflect.ValueOf(s).Elem(), root, "document", "scenario"); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// decodeInto fills dst from the parsed node and returns the first error
// in field order. name is what an error about the node itself calls it,
// ctx the prefix of its keys' names; they differ only at the root, whose
// sections are named from the document ("topology", not
// "scenario.topology").
func decodeInto(dst reflect.Value, node any, name, ctx string) error {
	mismatch := func(want, verb string) error {
		return fmt.Errorf("%s: expected %s, got "+verb, name, want, node)
	}
	switch dst.Kind() {
	case reflect.Pointer:
		dst.Set(reflect.New(dst.Type().Elem()))
		return decodeInto(dst.Elem(), node, name, ctx)
	case reflect.Struct:
		m, ok := node.(map[string]any)
		if !ok {
			return mismatch("a mapping", "%T")
		}
		if d, ok := dst.Addr().Interface().(interface{ setDefaults() }); ok {
			d.setDefaults()
		}
		for _, f := range reflect.VisibleFields(dst.Type()) {
			key, opt, _ := strings.Cut(f.Tag.Get("yaml"), ",")
			v, ok := m[key]
			if !ok || f.Anonymous {
				continue
			}
			delete(m, key)
			if v == nil && opt == "nullable" {
				continue
			}
			sub, fv := ctx+"."+key, dst.FieldByIndex(f.Index)
			if t := fv.Type(); name != ctx && (t.Kind() == reflect.Struct || t.Kind() == reflect.Pointer && t.Elem().Kind() == reflect.Struct) {
				sub = key
			}
			if err := decodeInto(fv, v, sub, sub); err != nil {
				return err
			}
		}
		if len(m) > 0 { // whatever no field took; sorted, so the one named does not depend on map order
			unknown := make([]string, 0, len(m))
			for k := range m {
				unknown = append(unknown, k)
			}
			sort.Strings(unknown)
			return fmt.Errorf("%s: unknown key %q", ctx, unknown[0])
		}
	case reflect.Slice:
		list, ok := node.([]any)
		if !ok {
			return mismatch("a list", "%T")
		}
		dst.Set(reflect.MakeSlice(dst.Type(), len(list), len(list)))
		for i, e := range list {
			sub := fmt.Sprintf("%s[%d]", name, i)
			if err := decodeInto(dst.Index(i), e, sub, sub); err != nil {
				return err
			}
		}
	case reflect.String:
		v, ok := node.(string)
		if !ok {
			return mismatch("a string", "%T")
		}
		dst.SetString(v)
	case reflect.Bool:
		v, ok := node.(bool)
		if !ok {
			return mismatch("a bool", "%T")
		}
		dst.SetBool(v)
	case reflect.Float64:
		switch n := node.(type) {
		case int64:
			dst.SetFloat(float64(n))
		case float64:
			dst.SetFloat(n)
		default:
			return mismatch("a number", "%T")
		}
	case reflect.Int:
		// An integer the parser could not hold arrives as a float64 and is
		// refused with every other float; one past int is refused here. A
		// field's error names the value it got, a list element's the type.
		v, ok := node.(int64)
		if !ok || int64(int(v)) != v {
			if strings.HasSuffix(name, "]") {
				return mismatch("an integer", "%T")
			}
			return mismatch("an integer", "%v")
		}
		dst.SetInt(v)
	case reflect.Uint64:
		v, ok := node.(int64)
		if !ok || v < 0 {
			return mismatch("a non-negative integer", "%v")
		}
		dst.SetUint(uint64(v))
	default:
		panic(fmt.Sprintf("scenario: spec field %s has kind %s, which no scenario value decodes into", name, dst.Kind()))
	}
	return nil
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
	if r.Shards < 0 {
		return fmt.Errorf("scenario: run.shards %d negative", r.Shards)
	}
	if r.Shards == 0 {
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
