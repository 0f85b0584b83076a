package scenario

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// corpusExpect records which committed scenarios are expected to pass.
// negative-control admits at a loose eps and asserts a strict one — it
// exists to prove the Monte Carlo measurement still detects real
// congestion, so it must FAIL.
var corpusExpect = map[string]bool{
	"baseline":         true,
	"churn-heavy":      true,
	"tor-cascade":      true,
	"zone-drain":       true,
	"heavy-tail":       true,
	"admit-storm":      true,
	"failover-soak":    true,
	"sharded-churn":    true,
	"negative-control": false,
}

// shortCorpus is the subset run under -short: the fastest positive
// scenario plus the negative control (the must-fail acceptance check).
var shortCorpus = map[string]bool{"baseline": true, "negative-control": true}

func loadCorpus(t *testing.T) map[string]*Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("scenario corpus not found: %v (%d files)", err, len(paths))
	}
	out := map[string]*Scenario{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		s, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("validate %s: %v", path, err)
		}
		if want := filepath.Base(path); s.Name+".yaml" != want {
			t.Fatalf("%s: scenario name %q does not match the file name", path, s.Name)
		}
		out[s.Name] = s
	}
	return out
}

// TestScenarioCorpus is the tier-2 suite: every committed scenario must
// decode, validate, and (full mode) run on the offline backend with the
// expected verdict. Every future scenario dropped into scenarios/ is
// automatically picked up — and must declare its expectation above.
func TestScenarioCorpus(t *testing.T) {
	corpus := loadCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		if _, ok := corpusExpect[name]; !ok {
			t.Fatalf("scenario %q has no entry in corpusExpect", name)
		}
		names = append(names, name)
	}
	for name := range corpusExpect {
		if _, ok := corpus[name]; !ok {
			t.Fatalf("expected scenario %q missing from scenarios/", name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if testing.Short() && !shortCorpus[name] {
			continue
		}
		s := corpus[name]
		t.Run(name, func(t *testing.T) {
			rep := runSim(t, s)
			if rep.Pass != corpusExpect[name] {
				buf, _ := rep.JSON()
				t.Fatalf("verdict %v, want %v:\n%s", rep.Pass, corpusExpect[name], buf)
			}
		})
	}
}

// TestNegativeControlFailsGuarantee pins the acceptance criterion
// precisely: the negative control fails because the Monte Carlo
// measurement detects congestion above the asserted eps — not for some
// incidental reason like a rejection-rate assertion.
func TestNegativeControlFailsGuarantee(t *testing.T) {
	s := loadCorpus(t)["negative-control"]
	rep := runSim(t, s)
	if rep.Pass {
		t.Fatalf("negative control passed; the guarantee assertion has stopped detecting congestion")
	}
	g := rep.Guarantee
	if g == nil || g.Pass {
		t.Fatalf("guarantee did not fail: %+v", g)
	}
	if g.WorstFreq <= g.EpsAsserted+g.Margin {
		t.Fatalf("worst frequency %v not above bound %v+%v", g.WorstFreq, g.EpsAsserted, g.Margin)
	}
	// And the failure is the guarantee's, with every other assertion
	// healthy — the scenario isolates the measurement.
	for _, as := range rep.Assertions {
		if as.Name == "guarantee" && as.Pass {
			t.Fatalf("guarantee assertion marked passing")
		}
		if as.Name != "guarantee" && !as.Pass {
			t.Fatalf("unexpected %s failure: %s", as.Name, as.Detail)
		}
	}
}
