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
