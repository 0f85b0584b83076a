package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

var updatePlacementGolden = flag.Bool("update-placement-golden", false,
	"rewrite testdata/placement_golden.json (only ever from the commit the hashes are meant to pin)")

// placementGoldenFile maps each stream's name to the sha256 of its final
// ExportState JSON.
var placementGoldenFile = filepath.Join("testdata", "placement_golden.json")

// TestPlacementGolden pins what the planners decide on the paper's job
// population. Each stream runs through an unjournaled Manager (min-max
// policy, eps 0.05):
//
//   - jobs: N exponential around 49 VMs, clipped to 2..200; mu from
//     {100..500}; sigma = rho*mu with rho uniform in (0,1). A share of 5 %
//     or 50 % of them are heterogeneous N = 8 requests with a mu and a rho
//     per VM;
//   - trees: the paper's three-tier datacenter and its Scaled(5) cut;
//   - fills: 300 steps, each admitting a new job after releasing a random
//     live one whenever the used slots have reached 50 % or 95 % of the
//     tree; then two machines under live jobs fail and RepairAll runs the
//     pinned and relaxed passes.
//
// Every admission of a new shape runs Algorithm 1 cold, so the final
// state's hash covers thousands of cold DP plans, rejections included.
//
// The warm streams run the same trees and fills on a catalogue instead:
// the eight flavours N in {2, 4, 8, 16} x demand {100±40, 300±100}, and in
// one request of ten one of two fixed N = 8 heterogeneous shapes, for
// 1 200 steps; then one machine under a live job fails and RepairAll
// runs. Nearly every plan is a plan-cache hit on a partly stale table.
//
// The cold hashes in testdata were generated at commit 0ed0684, before the
// homogeneous combine was reordered and trimmed to its live cells; the
// warm ones at b0e942d, before settle became demand-driven. All were
// re-pinned once, when exported jobs stopped carrying contributions: at
// 646ec90, with every job's Contribs set to nil, ExportState hashes to
// exactly these. Any other change to them is a change to placements, not
// a refactor. Since a job's Links are the sums of its derived
// contributions, the hashes pin crossing's arithmetic too; and every
// admission and the final state check the derivation against the
// reference builders (contrib_test.go) bit for bit.
func TestPlacementGolden(t *testing.T) {
	want := map[string]string{}
	if !*updatePlacementGolden {
		raw, err := os.ReadFile(placementGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	trees := []struct {
		name string
		cfg  topology.ThreeTierConfig
	}{{"paper", topology.PaperConfig()}, {"scaled5", topology.PaperConfig().Scaled(5)}}
	got := map[string]string{}
	seed, warmSeed := uint64(1), uint64(100)
	for _, tree := range trees {
		for _, hetero := range []float64{0.05, 0.5} {
			for _, fill := range []float64{0.5, 0.95} {
				name := fmt.Sprintf("%s/hetero%.2f/fill%.2f", tree.name, hetero, fill)
				seed++
				topo, err := topology.NewThreeTier(tree.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = placementStreamHash(t, topo, stream{fill: fill, seed: seed, steps: 300, fails: 2, draw: populationDraw(hetero)})
			}
		}
		for _, fill := range []float64{0.5, 0.95} {
			name := fmt.Sprintf("%s/warm/fill%.2f", tree.name, fill)
			warmSeed++
			topo, err := topology.NewThreeTier(tree.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got[name] = placementStreamHash(t, topo, stream{fill: fill, seed: warmSeed, steps: 1200, fails: 1, draw: catalogueDraw(), churnOnReject: true})
		}
	}
	for name, hash := range got {
		if !*updatePlacementGolden && hash != want[name] {
			t.Errorf("%s: state hash %s, want %s", name, hash, want[name])
		}
	}
	if *updatePlacementGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(placementGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// streamDraw admits one request of a stream on m.
type streamDraw func(r *stats.Rand, m *Manager) (*Allocation, error)

// stream is one seeded admission stream of TestPlacementGolden: steps
// admissions through draw, each after releasing a random live job once
// fill of the slots are used (or, with churnOnReject, after a rejection),
// then fails machines under live jobs and repairs.
type stream struct {
	fill          float64
	seed          uint64
	steps, fails  int
	draw          streamDraw
	churnOnReject bool
}

// populationDraw draws from the paper's job population: a share of
// heteroShare heterogeneous N = 8 requests, the rest homogeneous.
func populationDraw(heteroShare float64) streamDraw {
	means := []float64{100, 200, 300, 400, 500}
	return func(r *stats.Rand, m *Manager) (*Allocation, error) {
		if r.Float64() < heteroShare {
			demands := make([]stats.Normal, 8)
			for v := range demands {
				mu := r.Pick(means)
				demands[v] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
			}
			return m.AllocateHetero(Heterogeneous{Demands: demands})
		}
		n := min(max(int(math.Round(r.Exp(49))), 2), 200)
		mu := r.Pick(means)
		return m.AllocateHomog(Homogeneous{N: n, Demand: stats.Normal{Mu: mu, Sigma: r.Float64() * mu}})
	}
}

// catalogueDraw repeats a fixed catalogue (see TestPlacementGolden), so
// its shapes stay resident in the plan cache.
func catalogueDraw() streamDraw {
	var homog []Homogeneous
	for _, d := range []stats.Normal{{Mu: 100, Sigma: 40}, {Mu: 300, Sigma: 100}} {
		for _, n := range []int{2, 4, 8, 16} {
			homog = append(homog, Homogeneous{N: n, Demand: d})
		}
	}
	hetero := make([]Heterogeneous, 2)
	for i := range hetero {
		for v := 0; v < 8; v++ {
			mu := float64(100 * (1 + (v+i)%5))
			hetero[i].Demands = append(hetero[i].Demands, stats.Normal{Mu: mu, Sigma: mu * float64(1+v) / 10})
		}
	}
	return func(r *stats.Rand, m *Manager) (*Allocation, error) {
		if r.IntN(10) == 0 {
			return m.AllocateHetero(hetero[r.IntN(len(hetero))])
		}
		return m.AllocateHomog(homog[r.IntN(len(homog))])
	}
}

// placementStreamHash drives one stream and returns the hex sha256 of the
// manager's ExportState JSON.
func placementStreamHash(t *testing.T, topo *topology.Topology, s stream) string {
	t.Helper()
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(s.seed)
	var live []JobID
	rejected, lastRejected := 0, false
	admit := func() {
		a, err := s.draw(r, m)
		lastRejected = errors.Is(err, ErrNoCapacity)
		switch {
		case lastRejected:
			rejected++
		case err != nil:
			t.Fatal(err)
		default:
			live = append(live, a.ID)
			checkJobDerivation(t, topo, m.jobs[a.ID])
		}
	}
	total := topo.TotalSlots()
	for i := 0; i < s.steps; i++ {
		full := total-m.FreeSlots() >= int(s.fill*float64(total)) || s.churnOnReject && lastRejected
		if full && len(live) > 0 {
			k := r.IntN(len(live))
			if err := m.Release(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		admit()
	}
	st := m.ExportState()
	for i := 0; i < s.fails && len(st.Jobs) > 0; i++ {
		job := st.Jobs[r.IntN(len(st.Jobs))]
		if _, err := m.FailMachine(job.Placement[0].Machine); err != nil {
			t.Fatal(err)
		}
	}
	repairs, err := m.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.jobs {
		checkJobDerivation(t, topo, a)
	}
	adm := m.AdmissionStats()
	t.Logf("seed %d: %d live jobs, %d rejected, %d repairs, %d free slots of %d, %d of %d plans cache hits",
		s.seed, m.Running(), rejected, len(repairs), m.FreeSlots(), total, adm.PlanCacheHits, adm.PlanCacheHits+adm.PlanCacheMisses)
	raw, err := json.Marshal(m.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// checkJobDerivation compares a live job's derived contributions with the
// reference builder's for its request and placement.
func checkJobDerivation(t *testing.T, topo *topology.Topology, a *Allocation) {
	t.Helper()
	if a.homog != nil {
		checkDerivation(t, a.homog.String(), a.contribs, homogContributions(topo, *a.homog, &a.Placement))
	} else {
		checkDerivation(t, "hetero", a.contribs, heteroContributions(topo, *a.hetero, &a.Placement))
	}
}
