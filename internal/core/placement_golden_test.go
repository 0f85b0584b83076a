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
// The hashes in testdata were generated at commit 0ed0684, before the
// homogeneous combine was reordered and trimmed to its live cells; any
// change to them is a change to placements, not a refactor.
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
	seed := uint64(1)
	for _, tree := range trees {
		for _, hetero := range []float64{0.05, 0.5} {
			for _, fill := range []float64{0.5, 0.95} {
				name := fmt.Sprintf("%s/hetero%.2f/fill%.2f", tree.name, hetero, fill)
				seed++
				topo, err := topology.NewThreeTier(tree.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = placementStreamHash(t, topo, hetero, fill, seed)
				if !*updatePlacementGolden && got[name] != want[name] {
					t.Errorf("%s: state hash %s, want %s", name, got[name], want[name])
				}
			}
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

// placementStreamHash drives one seeded stream (see TestPlacementGolden)
// and returns the hex sha256 of the manager's ExportState JSON.
func placementStreamHash(t *testing.T, topo *topology.Topology, heteroShare, fill float64, seed uint64) string {
	t.Helper()
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(seed)
	means := []float64{100, 200, 300, 400, 500}
	var live []JobID
	rejected := 0
	admit := func() {
		var a *Allocation
		var err error
		if r.Float64() < heteroShare {
			demands := make([]stats.Normal, 8)
			for v := range demands {
				mu := r.Pick(means)
				demands[v] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
			}
			a, err = m.AllocateHetero(Heterogeneous{Demands: demands})
		} else {
			n := min(max(int(math.Round(r.Exp(49))), 2), 200)
			mu := r.Pick(means)
			a, err = m.AllocateHomog(Homogeneous{N: n, Demand: stats.Normal{Mu: mu, Sigma: r.Float64() * mu}})
		}
		switch {
		case errors.Is(err, ErrNoCapacity):
			rejected++
		case err != nil:
			t.Fatal(err)
		default:
			live = append(live, a.ID)
		}
	}
	total := topo.TotalSlots()
	for i := 0; i < 300; i++ {
		if total-m.FreeSlots() >= int(fill*float64(total)) && len(live) > 0 {
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
	for i := 0; i < 2 && len(st.Jobs) > 0; i++ {
		job := st.Jobs[r.IntN(len(st.Jobs))]
		if _, err := m.FailMachine(job.Placement[0].Machine); err != nil {
			t.Fatal(err)
		}
	}
	repairs, err := m.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: %d live jobs, %d rejected, %d repairs, %d free slots of %d",
		seed, m.Running(), rejected, len(repairs), m.FreeSlots(), total)
	raw, err := json.Marshal(m.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
