package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wal"
)

// controller is what the idempotency contract is stated over: the keyed
// mutators of an unsharded core.Manager and of a Router in either mode.
type controller interface {
	AllocateHomog(core.Homogeneous, ...core.CallOption) (*core.Allocation, error)
	Release(core.JobID, ...core.CallOption) error
	FailMachine(topology.NodeID, ...core.CallOption) ([]core.JobID, error)
	RestoreMachine(topology.NodeID, ...core.CallOption) error
	FailLink(topology.LinkID, ...core.CallOption) ([]core.JobID, error)
	RestoreLink(topology.LinkID, ...core.CallOption) error
	ExportState() *core.ManagerState
}

// contractSystem opens (and, on the same directory, reopens) one of the
// controllers the contract must hold for. crossPod makes job j and the
// alloc binding cross-pod jobs, whose keys live in the router's intent log
// and not in any pod WAL.
type contractSystem struct {
	name     string
	crossPod bool
	open     func(t *testing.T, dir string, tp *topology.Topology) (controller, func())
}

func contractSystems() []contractSystem {
	router := func(mode Mode) func(*testing.T, string, *topology.Topology) (controller, func()) {
		return func(t *testing.T, dir string, tp *topology.Topology) (controller, func()) {
			r, err := Open(dir, tp, 0.1, 3, Options{Mode: mode, NoSync: true})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return r, func() { r.Close() }
		}
	}
	manager := func(t *testing.T, dir string, tp *topology.Topology) (controller, func()) {
		mgr, j, err := wal.Recover(dir, tp, 0.1, nil, wal.WithNoSync())
		if err != nil {
			t.Fatalf("wal.Recover: %v", err)
		}
		return mgr, func() { j.Close() }
	}
	return []contractSystem{
		{name: "manager", open: manager},
		{name: "strict", open: router(Strict)},
		{name: "strict cross-pod", crossPod: true, open: router(Strict)},
		{name: "fast", open: router(Fast)},
	}
}

// TestIdempotencyContract is the one table of what a repeated
// Idempotency-Key answers: (the key was bound by: nothing | an alloc | the
// release of job j | a fail-machine | a restore-machine | a fail-link) x
// (the call made under it: alloc | release j | release j' | fail-machine |
// restore-machine | fail-link | restore-link). A key nothing bound
// executes; a key the same op bound (for a release: of the same job)
// replays the stored outcome and changes nothing; anything else is
// core.ErrIdemConflict and changes nothing. The unsharded manager, the
// strict router (pod-local and cross-pod jobs) and the fast router must
// give the same cell, live and after the directory was closed and
// reopened — pod-WAL bindings come back through rebuildTables, cross-pod
// ones through the intent log.
//
// A fault call targets a different machine or link than the fault that
// bound its key, so that executing it would be visible: that reuse still
// replays, because a binding stores the op and not the target.
func TestIdempotencyContract(t *testing.T) {
	tp, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 3, ToRsPerAgg: 2, MachinesPerRack: 3, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mc := tp.Machines()
	small := homogReq(t, 2, 20, 4)
	big := homogReq(t, 25, 20, 4) // a pod holds 24 slots
	const key = "k"
	withKey := core.WithIdemKey(key)

	binders := []string{"nothing", "alloc", "release j", "fail-machine", "restore-machine", "fail-link"}
	calls := []string{"alloc", "release j", "release j'", "fail-machine", "restore-machine", "fail-link", "restore-link"}
	want := func(binder, call string) string {
		switch {
		case binder == "nothing":
			return "execute"
		case binder == call:
			return "replay"
		}
		return "conflict"
	}

	for _, sys := range contractSystems() {
		for _, reopen := range []bool{false, true} {
			for _, binder := range binders {
				for _, call := range calls {
					name := fmt.Sprintf("%s/reopen=%v/bound by %s/%s", sys.name, reopen, binder, call)
					dir := t.TempDir()
					c, closeFn := sys.open(t, dir, tp)
					must := func(step string, err error) {
						t.Helper()
						if err != nil {
							closeFn()
							t.Fatalf("%s: %s: %v", name, step, err)
						}
					}

					// Two live jobs, and two machines and a link already down
					// so that a restore has something to do.
					jReq := small
					if sys.crossPod {
						jReq = big
					}
					j, err := c.AllocateHomog(jReq)
					must("admit j", err)
					j2, err := c.AllocateHomog(small)
					must("admit j'", err)
					_, err = c.FailMachine(mc[2])
					must("pre-fail", err)
					_, err = c.FailMachine(mc[3])
					must("pre-fail", err)
					_, err = c.FailLink(topology.LinkID(mc[6]))
					must("pre-fail", err)

					var boundJob core.JobID
					switch binder {
					case "alloc":
						a, err := c.AllocateHomog(jReq, withKey)
						must("bind", err)
						boundJob = a.ID
					case "release j":
						must("bind", c.Release(j.ID, withKey))
					case "fail-machine":
						_, err := c.FailMachine(mc[0], withKey)
						must("bind", err)
					case "restore-machine":
						must("bind", c.RestoreMachine(mc[3], withKey))
					case "fail-link":
						_, err := c.FailLink(topology.LinkID(mc[4]), withKey)
						must("bind", err)
					}
					if reopen {
						closeFn()
						c, closeFn = sys.open(t, dir, tp)
					}

					before := c.ExportState()
					var a *core.Allocation
					switch call {
					case "alloc":
						a, err = c.AllocateHomog(small, withKey)
					case "release j":
						err = c.Release(j.ID, withKey)
					case "release j'":
						err = c.Release(j2.ID, withKey)
					case "fail-machine":
						_, err = c.FailMachine(mc[1], withKey)
					case "restore-machine":
						err = c.RestoreMachine(mc[2], withKey)
					case "fail-link":
						_, err = c.FailLink(topology.LinkID(mc[5]), withKey)
					case "restore-link":
						err = c.RestoreLink(topology.LinkID(mc[6]), withKey)
					}
					changed := !before.Equal(c.ExportState())
					got := "replay"
					switch {
					case errors.Is(err, core.ErrIdemConflict):
						got = "conflict"
					case err != nil:
						got = "error: " + err.Error()
					case changed:
						got = "execute"
					}
					if w := want(binder, call); got != w {
						t.Errorf("%s: %s, want %s", name, got, w)
					} else if got == "conflict" && changed {
						t.Errorf("%s: a refused call changed the state", name)
					} else if got == "replay" && call == "alloc" && a.ID != boundJob {
						t.Errorf("%s: replay answered job %d, the key is bound to %d", name, a.ID, boundJob)
					}
					closeFn()
				}
			}
		}
	}
}
