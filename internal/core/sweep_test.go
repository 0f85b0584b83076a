package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// sweepClasses are the link classes the guarantee sweep fills, each with
// the split of a tenant's N = 8 VMs its level sees: a lone VM on its
// host, an even split across a ToR uplink, three to one across an
// aggregation uplink.
var sweepClasses = []struct {
	name  string
	level int // of the audited link's lower end
	in    int // of the tenant's 8 VMs below it
}{{"host", 0, 1}, {"ToR", 1, 4}, {"agg", 2, 6}}

// sweepCell fills one link of class c to Eq. 4's edge — the capacity at
// which its occupancy is exactly 1 — with k crossing tenants of N = 8,
// mu = 100, sigma = rho*mu, and returns the share of samples in which
// Audit's realized load overflows it. The tree has two aggregation
// switches of two ToRs of two machines; every other link is wide open.
func sweepCell(t *testing.T, c int, rho float64, k int, eps float64, samples int, seed uint64) float64 {
	t.Helper()
	tree := func(capacity float64) *topology.Topology {
		var walk func(level int, first bool) topology.Spec
		walk = func(level int, first bool) topology.Spec {
			s := topology.Spec{UpCap: 1e12, Slots: 128}
			if first && level == sweepClasses[c].level {
				s.UpCap = capacity
			}
			if level > 0 {
				s.Slots = 0
				s.Children = []topology.Spec{walk(level-1, first), walk(level-1, false)}
			}
			return s
		}
		root := walk(3, true)
		root.UpCap = 0
		return mustTopo(root)
	}
	req := Homogeneous{N: 8, Demand: stats.Normal{Mu: 100, Sigma: rho * 100}}
	unit := tree(1)
	ms := unit.Machines()
	link := ms[0]
	for unit.Node(link).Level < sweepClasses[c].level {
		link = unit.Node(link).Parent
	}
	p := Placement{Entries: []PlacementEntry{{Machine: ms[0], Count: sweepClasses[c].in}, {Machine: ms[len(ms)-1], Count: 8 - sweepClasses[c].in}}}
	led, err := NewLedger(unit, eps)
	if err != nil {
		t.Fatal(err)
	}
	st := &ManagerState{Links: make([]LinkRecord, unit.Len())}
	h := HomogSpecOf(req)
	for i := 0; i < k; i++ {
		commit(led, &p, contribsOf(unit, req, &p))
		st.Jobs = append(st.Jobs, JobState{ID: int64(i + 1), Homog: &h, Placement: p.Entries})
	}
	_, links, err := Audit(tree(led.Occupancy(link)), st, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range links {
		if la.Link == link {
			if la.Tenants != k {
				t.Fatalf("link %d: %d crossing tenants, want %d", link, la.Tenants, k)
			}
			return float64(la.Overflows) / float64(samples)
		}
	}
	t.Fatalf("link %d was not audited", link)
	return 0
}

// TestGuaranteeSweep measures Eq. 4's promise where Lemma 1's normal
// approximation is weakest: each link class x sigma/mu in {0.25, 0.5, 1,
// 2, 5, 10} x crossing tenants in {1, 2, 4, 16}, the link filled to Eq.
// 4's edge and audited at eps = 0.05 (4 000 samples) and eps = 0.01
// (20 000), enough to resolve either. A cell is on the wrong side when its
// realized overflow share exceeds eps by more than three standard errors.
// The test logs max(realized/eps) per cell (EXPERIMENTS.md, "Validation
// beyond figures") and pins the set of wrong-side cells: a cell that
// joins or leaves it is a change to the guarantee.
func TestGuaranteeSweep(t *testing.T) {
	rhos := []float64{0.25, 0.5, 1, 2, 5, 10}
	tenants := []int{1, 2, 4, 16}
	var wrong []string
	var table strings.Builder
	seed := uint64(0)
	for c, class := range sweepClasses {
		fmt.Fprintf(&table, "\n%-5s", class.name)
		for _, rho := range rhos {
			for _, k := range tenants {
				worst := 0.0
				for _, run := range []struct {
					eps     float64
					samples int
				}{{0.05, 4000}, {0.01, 20000}} {
					seed++
					realized := sweepCell(t, c, rho, k, run.eps, run.samples, seed)
					worst = max(worst, realized/run.eps)
					if realized > run.eps+3*math.Sqrt(run.eps*(1-run.eps)/float64(run.samples)) {
						wrong = append(wrong, fmt.Sprintf("%s/rho=%g/k=%d/eps=%g", class.name, rho, k, run.eps))
						t.Logf("%s: realized %.4f", wrong[len(wrong)-1], realized)
					}
				}
				fmt.Fprintf(&table, " %5.2f", worst)
			}
			table.WriteString(" |")
		}
	}
	t.Logf("max(realized/eps) per cell; columns: sigma/mu %v, each with tenants %v%s", rhos, tenants, table.String())
	// Eq. 4 under-reserves once sigma >= mu and many tenants share the
	// link: EXPERIMENTS.md writes the finding up; it is not fixed here.
	want := []string{
		"host/rho=1/k=16/eps=0.05", "host/rho=1/k=16/eps=0.01", "host/rho=2/k=4/eps=0.05",
		"host/rho=2/k=16/eps=0.05", "host/rho=2/k=16/eps=0.01",
		"ToR/rho=2/k=16/eps=0.05", "ToR/rho=2/k=16/eps=0.01", "ToR/rho=5/k=16/eps=0.05", "ToR/rho=5/k=16/eps=0.01",
		"agg/rho=2/k=16/eps=0.05", "agg/rho=2/k=16/eps=0.01", "agg/rho=5/k=16/eps=0.05",
	}
	if !slices.Equal(wrong, want) {
		t.Errorf("cells on the wrong side of eps beyond sampling error:\n got %q\nwant %q", wrong, want)
	}
}
