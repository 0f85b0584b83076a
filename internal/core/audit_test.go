package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestAudit runs the Monte Carlo auditor over small hand-built states on
// two racks of two machines (machine uplinks 150, rack uplinks 1000): every
// case twice, since the same state and seed must give the same result, and
// against the tally each case's demands force; links come back in ID order
// (a rack's uplink before its machines'). Demands of 100±1 per VM make a
// tally exact: a machine uplink that carries one VM's demand never
// overflows, one that carries two (or one on top of det 100) always does.
func TestAudit(t *testing.T) {
	const samples = 500
	const some = -1 // Overflows: in some samples but not all
	rack := topology.Spec{UpCap: 1000, Children: []topology.Spec{{UpCap: 150, Slots: 4}, {UpCap: 150, Slots: 4}}}
	tp := mustTopo(topology.Spec{Children: []topology.Spec{rack, rack}})
	ms := tp.Machines()
	m0, m1, m2 := ms[0], ms[1], ms[2]
	rack0, rack1 := tp.Node(m0).Parent, tp.Node(m2).Parent
	if rack0 == rack1 || tp.Node(m1).Parent != rack0 {
		t.Fatalf("machines %v: want m0, m1 under one rack and m2 under the other", ms)
	}
	tight := &HomogSpec{N: 4, Mu: 100, Sigma: 1}
	at := func(entries ...PlacementEntry) []PlacementEntry { return entries }
	on := func(m topology.NodeID, count int) PlacementEntry { return PlacementEntry{Machine: m, Count: count} }
	// state returns an empty state with det reserved on m1's uplink.
	state := func(jobs ...JobState) *ManagerState {
		st := &ManagerState{Links: make([]LinkRecord, tp.Len()), Jobs: jobs}
		st.Links[m1].Det = 100
		return st
	}
	split := JobState{ID: 1, Homog: tight, Placement: at(on(m0, 3), on(m1, 1))}

	for _, tc := range []struct {
		name       string
		st         *ManagerState
		stochastic int
		want       []LinkAudit
		err        string
	}{{
		// m0 carries min(3 VMs, 1 VM) ≈ 100 < 150, never 3 VMs; m1 carries
		// min(1, 3) ≈ 100 on top of its det 100, always over 150; rack0
		// holds all four VMs and carries nothing.
		name: "min of inside and outside on top of det", st: state(split), stochastic: 1,
		want: []LinkAudit{{Link: m0, Tenants: 1}, {Link: m1, Tenants: 1, Overflows: samples}},
	}, {
		name: "a link down is absent", st: func() *ManagerState {
			st := state(split)
			st.LinksDown = []int{int(m1)}
			return st
		}(), stochastic: 1,
		want: []LinkAudit{{Link: m0, Tenants: 1}},
	}, {
		name: "deterministic tenants draw nothing",
		st: state(
			JobState{ID: 1, Homog: &HomogSpec{N: 4, Mu: 100}, Placement: at(on(m0, 3), on(m1, 1))},
			JobState{ID: 2, Hetero: []stats.Normal{{Mu: 100}, {Mu: 50}}, Placement: at(on(m0, 1), on(m2, 1))},
		),
	}, {
		name: "a job wholly inside or outside a link crosses nothing",
		st:   state(JobState{ID: 1, Homog: tight, Placement: at(on(m2, 4))}), stochastic: 1,
	}, {
		// Two tenants across the racks: each machine uplink carries one of
		// them, each rack uplink both.
		name: "tenants are counted per link",
		st: func() *ManagerState {
			wide := &HomogSpec{N: 2, Mu: 100, Sigma: 60}
			st := state(
				JobState{ID: 3, Homog: wide, Placement: at(on(m0, 1), on(m2, 1))},
				JobState{ID: 4, Homog: wide, Placement: at(on(m1, 1), on(m2, 1))},
			)
			st.Links[rack0].Det, st.Links[rack1].Det = 850, 850
			return st
		}(), stochastic: 2,
		want: []LinkAudit{
			{Link: rack0, Tenants: 2, Overflows: some},
			{Link: m0, Tenants: 1, Overflows: some}, {Link: m1, Tenants: 1, Overflows: some},
			{Link: rack1, Tenants: 2, Overflows: some}, {Link: m2, Tenants: 2, Overflows: some},
		},
	}, {
		name: "a stochastic heterogeneous job is refused",
		st: state(split, JobState{ID: 7, Hetero: []stats.Normal{{Mu: 100}, {Mu: 100, Sigma: 20}},
			Placement: at(on(m0, 1), on(m2, 1))}),
		err: "job 7",
	}, {
		name: "a state of another topology is refused",
		st:   &ManagerState{Links: make([]LinkRecord, 3), Jobs: []JobState{split}},
		err:  "3 link records",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			stochastic, links, err := Audit(tp, tc.st, samples, 42)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err %v, want one naming %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			again, linksAgain, _ := Audit(tp, tc.st, samples, 42)
			if again != stochastic || !reflect.DeepEqual(linksAgain, links) {
				t.Fatalf("the same state and seed gave %d %+v, then %d %+v", stochastic, links, again, linksAgain)
			}
			if stochastic != tc.stochastic || len(links) != len(tc.want) {
				t.Fatalf("audited %d tenants on %+v, want %d on %+v", stochastic, links, tc.stochastic, tc.want)
			}
			for i, la := range links {
				w := tc.want[i]
				if w.Overflows == some && la.Overflows > 0 && la.Overflows < samples {
					w.Overflows = la.Overflows
				}
				if la != w {
					t.Errorf("link %d: got %+v, want %+v", i, la, tc.want[i])
				}
			}
		})
	}
}
