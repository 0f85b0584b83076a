package scenario

import (
	"bytes"
	"testing"
)

func runSim(t *testing.T, s *Scenario) *Report {
	t.Helper()
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var b Backend
	if s.Run.Shards > 0 {
		b, err = NewShardBackend(t.TempDir(), p.Topo, s.Eps, s.Run.Shards)
		if err != nil {
			t.Fatalf("NewShardBackend: %v", err)
		}
	} else if b, err = NewSimBackend(p.Topo, s.Eps); err != nil {
		t.Fatalf("NewSimBackend: %v", err)
	}
	defer b.Close()
	rep, err := Run(p, b)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestEngineBaseline(t *testing.T) {
	s := decodeTestDoc(t)
	rep := runSim(t, s)
	if !rep.Pass {
		buf, _ := rep.JSON()
		t.Fatalf("baseline run failed:\n%s", buf)
	}
	if rep.Offered != s.Fleet.Tenants || rep.Admitted+rep.Rejected != rep.Offered {
		t.Fatalf("tenant accounting: offered %d admitted %d rejected %d", rep.Offered, rep.Admitted, rep.Rejected)
	}
	if rep.Admitted == 0 {
		t.Fatalf("nothing admitted")
	}
	// With repair enabled jobs are never killed; completions plus
	// evictions account for every admission by the end of the run.
	if rep.Killed != 0 || rep.Completed+rep.Evicted != rep.Admitted {
		t.Fatalf("lifecycle accounting: admitted %d completed %d evicted %d killed %d",
			rep.Admitted, rep.Completed, rep.Evicted, rep.Killed)
	}
	if rep.Guarantee == nil {
		t.Fatalf("guarantee not measured")
	}
	if len(rep.Samples) == 0 || rep.Samples[len(rep.Samples)-1].At != rep.EndSeconds {
		t.Fatalf("missing end-state sample: %+v", rep.Samples)
	}
	tmplTotal := 0
	for _, tr := range rep.Templates {
		tmplTotal += tr.Offered
	}
	if tmplTotal != rep.Offered {
		t.Fatalf("template accounting: %d, want %d", tmplTotal, rep.Offered)
	}
}

func TestEngineReportByteIdentical(t *testing.T) {
	run := func() []byte {
		rep := runSim(t, decodeTestDoc(t))
		buf, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}
	s := decodeTestDoc(t)
	p, err := s.CompileSeeded(99)
	if err != nil {
		t.Fatalf("CompileSeeded: %v", err)
	}
	sb, err := NewSimBackend(p.Topo, s.Eps)
	if err != nil {
		t.Fatalf("NewSimBackend: %v", err)
	}
	rep, err := Run(p, sb)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	buf, _ := rep.JSON()
	if bytes.Equal(a, buf) {
		t.Fatalf("different seeds produced identical reports")
	}
}

func TestEngineKillMode(t *testing.T) {
	s := decodeTestDoc(t)
	s.Chaos.Repair = false
	s.Chaos.Machines = &RenewalSpec{MTBFSeconds: 60, MTTRSeconds: 20, Fraction: 1}
	s.Assert.DrainToEmpty = false // killed tenants may leave mid-fault state
	rep := runSim(t, s)
	if rep.MachineFailures == 0 {
		t.Fatalf("no machine failures drawn")
	}
	if rep.Evicted != 0 {
		t.Fatalf("kill mode evicted %d via repair", rep.Evicted)
	}
	if rep.Completed+rep.Killed != rep.Admitted {
		t.Fatalf("lifecycle accounting: admitted %d completed %d killed %d",
			rep.Admitted, rep.Completed, rep.Killed)
	}
	for _, as := range rep.Assertions {
		if as.Name == "conservation" && !as.Pass {
			t.Fatalf("conservation failed in kill mode: %s", as.Detail)
		}
	}
}

func TestEngineConcurrentAdmission(t *testing.T) {
	s := decodeTestDoc(t)
	s.Fleet.Arrival = ArrivalSpec{Pattern: "instant"}
	s.Run.Concurrency = 8
	s.Chaos = nil
	rep := runSim(t, s)
	if rep.Offered != s.Fleet.Tenants {
		t.Fatalf("offered %d", rep.Offered)
	}
	if rep.Admitted == 0 {
		t.Fatalf("nothing admitted under concurrent storm")
	}
	for _, as := range rep.Assertions {
		if as.Name == "conservation" && !as.Pass {
			t.Fatalf("conservation failed under concurrency: %s", as.Detail)
		}
	}
}

func TestEngineAssertionFailureIsReported(t *testing.T) {
	s := decodeTestDoc(t)
	// Stochastic demand far above host capacity: those tenants are all
	// rejected, so requiring every tenant admitted must fail.
	s.Fleet.Templates[0].Demand.Mu = 1e6
	all := s.Fleet.Tenants
	s.Assert.MinAdmitted = &all
	rep := runSim(t, s)
	if rep.Pass {
		t.Fatalf("impossible min_admitted passed")
	}
	found := false
	for _, as := range rep.Assertions {
		if as.Name == "min_admitted" {
			found = true
			if as.Pass {
				t.Fatalf("min_admitted marked passing")
			}
		}
	}
	if !found {
		t.Fatalf("min_admitted not evaluated: %+v", rep.Assertions)
	}
}

func TestEngineRenderMentionsVerdict(t *testing.T) {
	rep := runSim(t, decodeTestDoc(t))
	text := rep.Render()
	if !bytes.Contains([]byte(text), []byte("PASS")) {
		t.Fatalf("render missing verdict:\n%s", text)
	}
	if !bytes.Contains([]byte(text), []byte("guarantee")) {
		t.Fatalf("render missing guarantee line:\n%s", text)
	}
}
