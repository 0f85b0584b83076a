package wal

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// The chaos harness: run a mixed workload through a journaled manager,
// then simulate a crash at EVERY byte position of interest in the log —
// each record boundary, torn points inside each record's header and
// payload, and single-bit flips — and require that recovery from the
// mangled directory yields exactly the state of the surviving record
// prefix, bit for bit, and remains usable afterwards.

// chaosWorkload drives a deterministic mixed op sequence. Capacity
// rejections are fine (they journal nothing); every mutation that
// succeeds lands in the log.
func chaosWorkload(t *testing.T, m *core.Manager) {
	t.Helper()
	machines := m.Topology().Machines()
	var jobs []core.JobID
	alloc := func(n int, mu, sigma float64, opts ...core.CallOption) {
		if a, err := m.AllocateHomog(homog(n, mu, sigma), opts...); err == nil {
			jobs = append(jobs, a.ID)
		}
	}
	alloc(3, 5, 2, core.WithIdemKey("chaos-a"))
	alloc(2, 4, 1)
	if a, err := m.AllocateHetero(core.Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 2, Sigma: 0.5}, {Mu: 6, Sigma: 2}}}); err == nil {
		jobs = append(jobs, a.ID)
	}
	alloc(1, 8, 3)

	victim := machines[0]
	m.FailMachine(victim, core.WithIdemKey("chaos-fail"))
	m.RepairAll()
	m.RestoreMachine(victim)

	if len(jobs) > 1 {
		m.Release(jobs[1], core.WithIdemKey("chaos-rel"))
	}
	m.SetOffline(machines[1], true)
	alloc(2, 3, 1)
	m.SetOffline(machines[1], false)

	links := m.Topology().Links()
	rack := links[len(links)-1]
	m.FailLink(rack)
	m.RepairAll()
	m.RestoreLink(rack)
	alloc(1, 2, 1)
}

// referenceStates decodes the log's mutation records and builds the
// expected manager state after every record prefix: states[k] is the
// state with the first k mutations applied. A snapshot state (nil for
// generation 1) seeds the base.
func referenceStates(t *testing.T, data []byte, base *core.ManagerState) (states []*core.ManagerState, frames []Frame) {
	t.Helper()
	frames, _, err := scanFrames(data, walMagic)
	if err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	newBase := func() *core.Manager {
		m, err := core.NewManagerFromState(testTopo(t), testEps, base)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newBase()
	states = append(states, m.ExportState())
	for i, fr := range frames[1:] { // frames[0] is the meta record
		rec, err := DecodeRecord(fr.Payload)
		if err != nil || rec.Kind != KindMutation {
			t.Fatalf("reference decode record %d: %+v, %v", i, rec.Kind, err)
		}
		if err := m.Replay(rec.Mutation); err != nil {
			t.Fatalf("reference replay record %d: %v", i, err)
		}
		states = append(states, m.ExportState())
	}
	return states, frames
}

// crashRecover copies mangled log bytes into a fresh directory (plus the
// source directory's snapshot, when one exists) and runs recovery on it.
func crashRecover(t *testing.T, srcDir string, gen uint64, logBytes []byte) (*core.Manager, *Journal) {
	t.Helper()
	dir := t.TempDir()
	if snap, err := os.ReadFile(snapPath(srcDir, gen)); err == nil {
		if err := os.WriteFile(snapPath(dir, gen), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(walPath(dir, gen), logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	m, j, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("Recover after crash (gen %d, %d bytes): %v", gen, len(logBytes), err)
	}
	return m, j
}

// assertUsable proves a recovered manager is live, not just readable:
// mutations must commit and journal cleanly. Crash points where the
// surviving state has no free capacity fall back to an administrative
// mutation, which is always admissible.
func assertUsable(t *testing.T, m *core.Manager, j *Journal) {
	t.Helper()
	before := j.Appended()
	if a, err := m.AllocateHomog(homog(1, 1, 0.5)); err == nil {
		if err := m.Release(a.ID); err != nil {
			t.Fatalf("post-recovery release: %v", err)
		}
	} else if !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("post-recovery allocate: %v", err)
	} else {
		mc := m.Topology().Machines()[0]
		if err := m.SetOffline(mc, true); err != nil {
			t.Fatalf("post-recovery offline: %v", err)
		}
		if err := m.SetOffline(mc, false); err != nil {
			t.Fatalf("post-recovery online: %v", err)
		}
	}
	if j.Appended() != before+2 {
		t.Fatalf("post-recovery ops journaled %d records, want 2", j.Appended()-before)
	}
}

// runChaos exercises every crash point of one generation's log against
// the reference prefix states.
func runChaos(t *testing.T, dir string, gen uint64, data []byte, base *core.ManagerState, finalWant *core.ManagerState) {
	t.Helper()
	states, frames := referenceStates(t, data, base)

	// Crash exactly at every record boundary: state must be the prefix.
	for k, fr := range frames {
		m, j := crashRecover(t, dir, gen, data[:fr.End])
		want := states[0]
		if k > 0 {
			want = states[k]
		}
		if got := m.ExportState(); !reflect.DeepEqual(got, want) {
			j.Close()
			t.Fatalf("crash at record %d boundary: state differs:\n got %+v\nwant %+v", k, got, want)
		}
		if k == len(frames)-1 && !reflect.DeepEqual(m.ExportState(), finalWant) {
			j.Close()
			t.Fatal("full log replay does not match the live manager")
		}
		assertUsable(t, m, j)
		j.Close()
	}

	// Torn writes: crash at every byte inside each record — mid-header
	// and mid-payload. The torn record must vanish; the prefix survives.
	for k := 1; k < len(frames); k++ {
		start := frames[k-1].End
		end := frames[k].End
		// Every offset for short records, sampled interior points plus the
		// header bytes for longer ones — bounded work, same coverage.
		cuts := make(map[int]bool)
		for d := 1; d <= headerLen && start+d < end; d++ {
			cuts[start+d] = true
		}
		if end-start <= 64 {
			for off := start + 1; off < end; off++ {
				cuts[off] = true
			}
		} else {
			for _, off := range []int{start + headerLen + 1, (start + end) / 2, end - 1} {
				cuts[off] = true
			}
		}
		for cut := range cuts {
			m, j := crashRecover(t, dir, gen, data[:cut])
			if got := m.ExportState(); !reflect.DeepEqual(got, states[k-1]) {
				j.Close()
				t.Fatalf("torn write at byte %d (record %d): state differs:\n got %+v\nwant %+v", cut, k, got, states[k-1])
			}
			assertUsable(t, m, j)
			j.Close()
		}
	}

	// Bit flips inside a record's payload: the CRC must catch them and
	// replay must stop at the record before.
	for k := 1; k < len(frames); k++ {
		start := frames[k-1].End
		mangled := append([]byte(nil), data...)
		mangled[start+headerLen] ^= 0x01 // first payload byte
		m, j := crashRecover(t, dir, gen, mangled)
		if got := m.ExportState(); !reflect.DeepEqual(got, states[k-1]) {
			j.Close()
			t.Fatalf("bit flip in record %d: state differs:\n got %+v\nwant %+v", k, got, states[k-1])
		}
		assertUsable(t, m, j)
		j.Close()
	}
}

// TestChaosCrashAtEveryRecordBoundary is the headline crash-fault test on
// a single-generation log.
func TestChaosCrashAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	chaosWorkload(t, m)
	finalWant := m.ExportState()
	if j.Appended() < 10 {
		t.Fatalf("workload journaled only %d records; chaos coverage too thin", j.Appended())
	}
	j.Close()

	data, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, dir, 1, data, nil, finalWant)
}

// TestChaosAcrossCheckpoint repeats the crash sweep on a log tail that
// sits on top of a snapshot, interleaving a second workload burst after
// the checkpoint.
func TestChaosAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	chaosWorkload(t, m)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Free most capacity so the second burst's admissions succeed, then
	// run it: releases and burst both land in generation 2's tail.
	for _, js := range m.ExportState().Jobs[1:] {
		if err := m.Release(core.JobID(js.ID)); err != nil {
			t.Fatal(err)
		}
	}
	chaosWorkload(t, m)
	finalWant := m.ExportState()
	if j.Gen() != 2 || j.Appended() < 10 {
		t.Fatalf("gen=%d appended=%d; want gen 2 with a thick tail", j.Gen(), j.Appended())
	}
	j.Close()

	snap, err := os.ReadFile(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	base, err := decodeSnapshot(snap, meta{Gen: 2, Eps: testEps, Nodes: testTopo(t).Len(), Slots: testTopo(t).TotalSlots()}, "snap-2.snap")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, dir, 2, data, base, finalWant)
}

// TestChaosTornMetaFrame: a crash so early that even the log's meta frame
// is torn must fall back to the snapshot (or empty) state.
func TestChaosTornMetaFrame(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	chaosWorkload(t, m)
	j.Close()
	data, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := core.NewManager(testTopo(t), testEps)
	if err != nil {
		t.Fatal(err)
	}
	want := empty.ExportState()
	for _, cut := range []int{0, 1, magicLen - 1, magicLen, magicLen + 3} {
		m2, j2 := crashRecover(t, dir, 1, data[:cut])
		if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
			j2.Close()
			t.Fatalf("cut at %d: state not empty:\n got %+v", cut, got)
		}
		assertUsable(t, m2, j2)
		j2.Close()
	}

	// Recovery must also have rewritten the log so the NEXT restart still
	// works (regression guard for a half-written magic).
	m3, j3 := crashRecover(t, dir, 1, data[:3])
	a, err := m3.AllocateHomog(homog(1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	stateDir := j3.Dir()
	j3.Close()
	m4, j4, err := Recover(stateDir, testTopo(t), testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("second recovery after torn magic: %v", err)
	}
	defer j4.Close()
	if m4.Running() != 1 {
		t.Fatalf("job admitted after torn-magic recovery was lost; running=%d", m4.Running())
	}
	if _, err := m4.AllocateHomog(homog(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	_ = a
}

// TestChaosMidGroupCommitBatch crashes inside logs produced by CONCURRENT
// committers, where group commit coalesces multiple records into one
// write+fsync. A crash mid-batch must recover exactly the surviving
// record prefix — partial batches tear at a record boundary, never leak a
// half-applied batch. The journal runs with fsync ON so real flush
// latency is what forms multi-record batches, exactly as in production.
func TestChaosMidGroupCommitBatch(t *testing.T) {
	dir := t.TempDir()
	m, j, err := Recover(dir, testTopo(t), testEps, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent alloc/release rounds; while one committer's fsync is in
	// flight the others stage into the next batch. Retry a few rounds in
	// case the scheduler serializes a whole round (rare but possible).
	const workers = 6
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					a, err := m.AllocateHomog(homog(1+(g+i)%2, 3, 1))
					if err != nil {
						if errors.Is(err, core.ErrNoCapacity) {
							continue
						}
						t.Errorf("worker %d: allocate: %v", g, err)
						return
					}
					if err := m.Release(a.ID); err != nil {
						t.Errorf("worker %d: release: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if j.GroupCommitStats().MaxBatch >= 2 {
			break
		}
	}
	gs := j.GroupCommitStats()
	if gs.MaxBatch < 2 {
		t.Fatalf("no multi-record batch formed; chaos coverage too thin: %+v", gs)
	}
	if gs.Records < int64(j.Appended()) {
		t.Fatalf("group-commit stats saw %d records, journal appended %d", gs.Records, j.Appended())
	}
	t.Logf("group commit: %+v over %d records", gs, j.Appended())

	finalWant := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, dir, 1, data, nil, finalWant)
}

// TestChaosOrphanedRotationAtEveryBoundary models the crash window
// between a checkpoint's directory mutations and the directory fsync
// that makes them durable: the surviving view has wal-2.log (truncated
// at any record boundary) but no snap-2.snap, with generation 1 still
// fully on disk. Recovery must rebuild generation 1 and replay the
// orphaned gen-2 prefix on top, bit for bit.
func TestChaosOrphanedRotationAtEveryBoundary(t *testing.T) {
	srcDir := t.TempDir()
	m, j := mustRecover(t, srcDir)
	chaosWorkload(t, m)
	oldLog, err := os.ReadFile(walPath(srcDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := m.ExportState()
	chaosWorkload(t, m) // records that live only in the orphaned wal-2
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath(srcDir, 2))
	if err != nil {
		t.Fatal(err)
	}

	states, frames := referenceStates(t, data, base)
	for k, fr := range frames {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), oldLog, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir, 2), data[:fr.End], 0o644); err != nil {
			t.Fatal(err)
		}
		m2, j2, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
		if err != nil {
			t.Fatalf("orphan recovery at record %d: %v", k, err)
		}
		want := states[0]
		if k > 0 {
			want = states[k]
		}
		if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
			j2.Close()
			t.Fatalf("orphan crash at record %d boundary: state differs", k)
		}
		assertUsable(t, m2, j2)
		j2.Close()
	}
}
