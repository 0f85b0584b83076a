package scenario

import (
	"strings"
	"testing"
)

// testDoc is a small but fully featured scenario used across the package
// tests: two templates, chaos with repair, and every assertion kind.
const testDoc = `
name: unit-baseline
description: two-template fleet on a small tree
seed: 7
eps: 0.05
topology:
  aggs: 2
  tors_per_agg: 2
  machines_per_rack: 3
  slots_per_machine: 4
  host_cap_mbps: 1000
  oversub: 1
fleet:
  tenants: 40
  arrival:
    pattern: linear
    over_seconds: 60
  templates:
    - name: stochastic
      weight: 3
      n: {fixed: 4}
      demand: {mu: 120, sigma: 40}
      hold: {lo: 20, hi: 60}
    - name: reserved
      weight: 1
      n: {mean: 3, min: 2, max: 6}
      bandwidth: 200
      hold: {lo: 10, hi: 40}
chaos:
  repair: true
  machines: {mtbf: 400, mttr: 30}
run:
  max_seconds: 200
  sample_every: 50
assert:
  max_rejection_rate: 1.0
  min_admitted: 1
  guarantee: {samples: 400, margin: 0.05}
  conservation: true
  drain_to_empty: true
`

func decodeTestDoc(t *testing.T) *Scenario {
	t.Helper()
	s, err := Decode([]byte(testDoc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return s
}

func TestDecodeScenario(t *testing.T) {
	s := decodeTestDoc(t)
	if s.Name != "unit-baseline" || s.Seed != 7 || s.Eps != 0.05 {
		t.Fatalf("header: %+v", s)
	}
	if len(s.Fleet.Templates) != 2 {
		t.Fatalf("templates: %+v", s.Fleet.Templates)
	}
	st := s.Fleet.Templates[0]
	if st.Demand == nil || st.Demand.Mu != 120 || st.Demand.Sigma != 40 || st.N.Fixed != 4 {
		t.Fatalf("stochastic template: %+v", st)
	}
	det := s.Fleet.Templates[1]
	if det.Bandwidth != 200 || det.N.Mean != 3 || det.N.Min != 2 || det.N.Max != 6 {
		t.Fatalf("deterministic template: %+v", det)
	}
	if s.Chaos == nil || !s.Chaos.Repair || s.Chaos.Machines.MTBFSeconds != 400 {
		t.Fatalf("chaos: %+v", s.Chaos)
	}
	if s.Chaos.Machines.Fraction != 1 {
		t.Fatalf("fraction default: %v", s.Chaos.Machines.Fraction)
	}
	a := s.Assert
	if a.MaxRejectionRate == nil || *a.MaxRejectionRate != 1.0 || a.MinAdmitted == nil || *a.MinAdmitted != 1 {
		t.Fatalf("assert pointers: %+v", a)
	}
	if a.Guarantee == nil || a.Guarantee.Samples != 400 || a.Guarantee.At != -1 {
		t.Fatalf("guarantee defaults: %+v", a.Guarantee)
	}
	if !a.Conservation || !a.DrainToEmpty {
		t.Fatalf("bool asserts: %+v", a)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDecodeUnknownKey(t *testing.T) {
	for _, doc := range []string{
		"name: x\nbogus: 1\n",
		"name: x\ntopology: {aggs: 1, nope: 2}\n",
		"name: x\nassert: {guarantee: {samples: 100, zzz: 1}}\n",
		// The admission-mode key is gone: one pipeline, nothing to select.
		"name: x\nrun: {admission: batch}\n",
	} {
		if _, err := Decode([]byte(doc)); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("%q: err = %v, want unknown key", doc, err)
		}
	}
}

// TestDecodeRefuses is the refused-document table: every way a node can
// have the wrong kind, at every level, with the whole error text — the
// path it names is what a scenario author goes by. The texts were
// recorded from the hand-written decoder the tag-driven one replaced.
func TestDecodeRefuses(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		// A scalar or list where a mapping belongs, root to leaf.
		{"- a\n", "scenario: document: expected a mapping, got []interface {}"},
		{"topology: 5\n", "scenario: topology: expected a mapping, got int64"},
		{"chaos: 5\n", "scenario: chaos: expected a mapping, got int64"},
		{"run: [1]\n", "scenario: run: expected a mapping, got []interface {}"},
		{"fleet: {arrival: x}\n", "scenario: fleet.arrival: expected a mapping, got string"},
		{"fleet: {templates: [{hold: 5}]}\n", "scenario: fleet.templates[0].hold: expected a mapping, got int64"},
		// A mapping or scalar where a list belongs.
		{"fleet: {templates: {name: a}}\n", "scenario: fleet.templates: expected a list, got map[string]interface {}"},
		{"chaos: {drains: {at: 1}}\n", "scenario: chaos.drains: expected a list, got map[string]interface {}"},
		{"chaos: {failovers: 3}\n", "scenario: chaos.failovers: expected a list, got int64"},
		{"fleet: {templates: [{demand: {mu_choices: 7}}]}\n", "scenario: fleet.templates[0].demand.mu_choices: expected a list, got int64"},
		// A list element of the wrong kind (a list names the type it got,
		// an integer field the value).
		{"fleet: {templates: [a]}\n", "scenario: fleet.templates[0]: expected a mapping, got string"},
		{"chaos: {drains: [{at: 1}, 7]}\n", "scenario: chaos.drains[1]: expected a mapping, got int64"},
		{"chaos: {failovers: [1, x]}\n", "scenario: chaos.failovers[1]: expected an integer, got string"},
		{"chaos: {failovers: [1, 2.5]}\n", "scenario: chaos.failovers[1]: expected an integer, got float64"},
		{"fleet: {templates: [{demand: {mu_choices: [1, true]}}]}\n", "scenario: fleet.templates[0].demand.mu_choices[1]: expected a number, got bool"},
		// Scalars: no float for an int, no sign on the seed, nothing past
		// int64 (the parser reads it as a float), no cross-kind coercion.
		{"run: {shards: 1.5}\n", "scenario: run.shards: expected an integer, got 1.5"},
		{"assert: {max_evicted: 1.0}\n", "scenario: assert.max_evicted: expected an integer, got 1"},
		{"fleet: {templates: [{}, {n: {fixed: 1.5}}]}\n", "scenario: fleet.templates[1].n.fixed: expected an integer, got 1.5"},
		{"topology: {aggs: two}\n", "scenario: topology.aggs: expected an integer, got two"},
		{"seed: -1\n", "scenario: scenario.seed: expected a non-negative integer, got -1"},
		{"seed: 1.0\n", "scenario: scenario.seed: expected a non-negative integer, got 1"},
		{"seed: 99999999999999999999\n", "scenario: scenario.seed: expected a non-negative integer, got 1e+20"},
		{"run: {max_seconds: 9223372036854775808}\n", "scenario: run.max_seconds: expected an integer, got 9.223372036854776e+18"},
		{"name: 5\n", "scenario: scenario.name: expected a string, got int64"},
		{"description: [a]\n", "scenario: scenario.description: expected a string, got []interface {}"},
		{"eps: high\n", "scenario: scenario.eps: expected a number, got string"},
		{"chaos: {repair: 1}\n", "scenario: chaos.repair: expected a bool, got int64"},
		{"assert: {conservation: yes}\n", "scenario: assert.conservation: expected a bool, got string"},
		// null: only "chaos:" may be written with nothing under it.
		{"topology:\n", "scenario: topology: expected a mapping, got <nil>"},
		{"assert: {guarantee: ~}\n", "scenario: assert.guarantee: expected a mapping, got <nil>"},
		{"assert:\n  guarantee:\n", "scenario: assert.guarantee: expected a mapping, got <nil>"},
		{"chaos: {machines: ~}\n", "scenario: chaos.machines: expected a mapping, got <nil>"},
		{"chaos: {links: ~}\n", "scenario: chaos.links: expected a mapping, got <nil>"},
		{"fleet: {templates: [{demand: ~}]}\n", "scenario: fleet.templates[0].demand: expected a mapping, got <nil>"},
		{"assert: {min_admitted: ~}\n", "scenario: assert.min_admitted: expected an integer, got <nil>"},
		{"assert: {max_rejection_rate: ~}\n", "scenario: assert.max_rejection_rate: expected a number, got <nil>"},
		{"chaos: ~\nassert: 1\n", "scenario: assert: expected a mapping, got int64"},
		// Unknown keys: at the root, inside a list element, below one, in
		// the embedded renewal of chaos.links — and a key of chaos.links is
		// not a key of chaos.machines. Of several, the first in sorted
		// order is named.
		{"bogus: 1\n", `scenario: scenario: unknown key "bogus"`},
		{"fleet: {templates: [{name: a}, {name: b, fixd: 1}]}\n", `scenario: fleet.templates[1]: unknown key "fixd"`},
		{"fleet: {templates: [{n: {fixd: 1}}]}\n", `scenario: fleet.templates[0].n: unknown key "fixd"`},
		{"chaos: {drains: [{at: 1, until: 2}]}\n", `scenario: chaos.drains[0]: unknown key "until"`},
		{"chaos: {links: {mtbf: 1, lvl: 2}}\n", `scenario: chaos.links: unknown key "lvl"`},
		{"chaos: {machines: {level: 1}}\n", `scenario: chaos.machines: unknown key "level"`},
		{"run: {zeta: 1, alpha: 2}\n", `scenario: run: unknown key "alpha"`},
		// The first error wins, in the structs' field order; a mapping's
		// unknown keys are looked at after its known ones.
		{"run: {shards: x}\ntopology: {aggs: y}\n", "scenario: topology.aggs: expected an integer, got y"},
		{"run: {bogus: 1, shards: x}\n", "scenario: run.shards: expected an integer, got x"},
	} {
		if _, err := Decode([]byte(tc.doc)); err == nil || err.Error() != tc.want {
			t.Errorf("%q:\n got %v\nwant %s", tc.doc, err, tc.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*Scenario)) *Scenario {
		s := decodeTestDoc(t)
		f(s)
		return s
	}
	cases := []struct {
		name string
		s    *Scenario
		frag string
	}{
		{"no name", mutate(func(s *Scenario) { s.Name = "" }), "name"},
		{"eps too big", mutate(func(s *Scenario) { s.Eps = 0.5 }), "eps"},
		{"bad preset", mutate(func(s *Scenario) { s.Topology.Preset = "mega" }), "preset"},
		{"zero tenants", mutate(func(s *Scenario) { s.Fleet.Tenants = 0 }), "tenants"},
		{"bad pattern", mutate(func(s *Scenario) { s.Fleet.Arrival.Pattern = "surge" }), "pattern"},
		{"both demand kinds", mutate(func(s *Scenario) { s.Fleet.Templates[0].Bandwidth = 100 }), "exactly one"},
		{"neither demand kind", mutate(func(s *Scenario) { s.Fleet.Templates[0].Demand = nil }), "exactly one"},
		{"fixed and mean", mutate(func(s *Scenario) { s.Fleet.Templates[0].N.Mean = 2 }), "n.fixed"},
		{"hold beyond run", mutate(func(s *Scenario) { s.Fleet.Templates[0].Hold.Hi = 1000 }), "hold"},
		{"rho without choices", mutate(func(s *Scenario) { s.Fleet.Templates[0].Demand.Rho = 1 }), "rho"},
		{"chaos mtbf", mutate(func(s *Scenario) { s.Chaos.Machines.MTBFSeconds = 0 }), "mtbf"},
		{"drain index", mutate(func(s *Scenario) {
			s.Chaos.Drains = []DrainSpec{{At: 10, Level: 2, Index: 99, Duration: 5}}
		}), "index"},
		{"guarantee margin", mutate(func(s *Scenario) { s.Assert.Guarantee.Margin = 0 }), "margin"},
		{"guarantee at", mutate(func(s *Scenario) { s.Assert.Guarantee.At = 10000 }), "guarantee.at"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.frag)
		}
	}
}

func TestValidateAcceptsPreset(t *testing.T) {
	s := decodeTestDoc(t)
	s.Topology = TopoSpec{Preset: "paper"}
	if err := s.Validate(); err != nil {
		t.Fatalf("paper preset: %v", err)
	}
}
