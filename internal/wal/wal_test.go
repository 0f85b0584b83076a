package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// testTopo: 2 racks x 2 machines x 3 slots, the same shape the core
// tests use.
func testTopo(t testing.TB) *topology.Topology {
	t.Helper()
	rack := func() topology.Spec {
		return topology.Spec{UpCap: 40, Children: []topology.Spec{
			{UpCap: 30, Slots: 3},
			{UpCap: 30, Slots: 3},
		}}
	}
	topo, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{rack(), rack()}})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

const testEps = 0.05

func mustRecover(t testing.TB, dir string, opts ...Option) (*core.Manager, *Journal) {
	t.Helper()
	m, j, err := Recover(dir, testTopo(t), testEps, nil, append([]Option{WithNoSync()}, opts...)...)
	if err != nil {
		t.Fatalf("Recover(%s): %v", dir, err)
	}
	return m, j
}

func homog(n int, mu, sigma float64) core.Homogeneous {
	return core.Homogeneous{N: n, Demand: stats.Normal{Mu: mu, Sigma: sigma}}
}

// TestFrameRoundTrip: framing survives encode -> scan for multiple frames.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`x`), make([]byte, 4096)}
	buf := []byte(walMagic)
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	frames, clean, err := scanFrames(buf, walMagic)
	if err != nil {
		t.Fatalf("scanFrames: %v", err)
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d, want %d", clean, len(buf))
	}
	if len(frames) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(frames), len(payloads))
	}
	for i, fr := range frames {
		if string(fr.Payload) != string(payloads[i]) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
}

// TestScanFramesStopsAtCorruption: torn tails and bit flips stop the scan
// at the last intact frame instead of erroring the whole file away.
func TestScanFramesStopsAtCorruption(t *testing.T) {
	buf := appendFrame([]byte(walMagic), []byte(`{"op":"x"}`))
	oneClean := len(buf)
	buf = appendFrame(buf, []byte(`{"op":"y"}`))

	for cut := oneClean + 1; cut < len(buf); cut++ {
		frames, clean, err := scanFrames(buf[:cut], walMagic)
		if err == nil {
			t.Fatalf("cut at %d: no corruption reported", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
		if len(frames) != 1 || clean != oneClean {
			t.Fatalf("cut at %d: %d frames, clean %d; want 1 frame, clean %d", cut, len(frames), clean, oneClean)
		}
	}

	// Flip one byte in the second payload: CRC must catch it.
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 0x40
	frames, clean, err := scanFrames(flipped, walMagic)
	if !errors.Is(err, ErrCorrupt) || len(frames) != 1 || clean != oneClean {
		t.Fatalf("bit flip: frames=%d clean=%d err=%v", len(frames), clean, err)
	}

	if _, _, err := scanFrames([]byte("NOTMAGIC"), walMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
}

// TestRecoverFreshThenRestart: the fundamental durability loop — run a
// mixed workload journaled to disk, reopen the directory, and require the
// recovered manager's full state to equal the live one's bit for bit.
func TestRecoverFreshThenRestart(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)

	a1, err := m.AllocateHomog(homog(3, 5, 2), core.WithIdemKey("j1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateHetero(core.Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 6, Sigma: 2}}}); err != nil {
		t.Fatal(err)
	}
	victim := a1.Placement.Entries[0].Machine
	if _, err := m.FailMachine(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RepairJob(a1.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreMachine(victim); err != nil {
		t.Fatal(err)
	}
	if err := m.SetOffline(victim, true); err != nil {
		t.Fatal(err)
	}
	want := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}
	// The recovered manager keeps honoring idempotency keys from before
	// the crash.
	a, err := m2.AllocateHomog(homog(3, 5, 2), core.WithIdemKey("j1"))
	if err != nil || a.ID != a1.ID {
		t.Fatalf("idem replay after recovery: id=%v err=%v, want id=%d", a, err, a1.ID)
	}

	// A sigma = 10 mu job too wide for one machine: the moment-matched
	// mean of its crossing demand is negative, and the checkpoint a
	// graceful stop writes must still recover.
	wide, err := m2.AllocateHomog(homog(4, 0.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Placement.Entries) < 2 {
		t.Fatalf("N = 4 placed on one machine: %v", &wide.Placement)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want = m2.ExportState()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, j3 := mustRecover(t, dir)
	defer j3.Close()
	if got := m3.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state recovered from the checkpoint differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecoverTruncatesTornTail: bytes past the last intact record are
// discarded and the log stays appendable.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	if _, err := m.AllocateHomog(homog(2, 5, 2)); err != nil {
		t.Fatal(err)
	}
	want := m.ExportState()
	j.Close()

	path := walPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, j2 := mustRecover(t, dir)
	if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail leaked into state:\n got %+v\nwant %+v", got, want)
	}
	// The file must be clean again: appending works and survives another
	// recovery.
	if _, err := m2.AllocateHomog(homog(1, 5, 2)); err != nil {
		t.Fatal(err)
	}
	want2 := m2.ExportState()
	j2.Close()
	m3, j3 := mustRecover(t, dir)
	defer j3.Close()
	if got := m3.ExportState(); !reflect.DeepEqual(got, want2) {
		t.Fatalf("post-truncation append lost:\n got %+v\nwant %+v", got, want2)
	}
}

// TestCheckpointCompacts: a checkpoint starts a new generation, deletes
// the old one, and recovery from the compacted directory reproduces the
// same state.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()
	for i := 0; i < 4; i++ {
		if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if g := j.Gen(); g != 2 {
		t.Fatalf("generation after checkpoint = %d, want 2", g)
	}
	if j.Appended() != 0 {
		t.Fatalf("appended after checkpoint = %d, want 0", j.Appended())
	}
	if _, err := os.Stat(walPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old generation log still present: %v", err)
	}
	var files []string
	if err := eachFile(dir, func(name string, _ uint64, _, _ bool) { files = append(files, name) }); err != nil || !slices.Equal(files, []string{"snap-2.snap", "wal-2.log"}) {
		t.Fatalf("files on disk = %v (%v), want generation 2's snapshot and log and nothing else", files, err)
	}

	// Post-checkpoint mutations land in the new log; recovery sees both.
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	want := m.ExportState()
	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-checkpoint recovery differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestNeedsCheckpointThreshold: the compaction signal trips exactly at
// the configured record count.
func TestNeedsCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir, WithSnapshotEvery(3))
	defer j.Close()
	for i := 0; i < 2; i++ {
		if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint true below threshold")
	}
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if !j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint false at threshold")
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint true right after checkpoint")
	}
}

// TestFailedCheckpointWaitsForMoreRecords: a checkpoint that fails is not
// asked for again on the next tick — NeedsCheckpoint stays false until
// another snapshotEvery records land — and a success clears the wait.
func TestFailedCheckpointWaitsForMoreRecords(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir, WithSnapshotEvery(3))
	defer j.Close()
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A directory where the next snapshot goes fails writeDurably's rename.
	block := snapPath(dir, j.Gen()+1)
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	commit(3)
	if !j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint false at threshold")
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded onto a directory")
	}
	for i := 0; i < 3; i++ {
		if j.NeedsCheckpoint() {
			t.Fatalf("NeedsCheckpoint true %d records after a failed checkpoint, want false until 3", i)
		}
		commit(1)
	}
	if !j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint false 3 records after a failed checkpoint")
	}

	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the obstacle went: %v", err)
	}
	if j.NeedsCheckpoint() || j.Appended() != 0 {
		t.Fatalf("after a checkpoint: NeedsCheckpoint %v, appended %d; want false and 0", j.NeedsCheckpoint(), j.Appended())
	}
	commit(3)
	if !j.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint false at threshold after a successful checkpoint")
	}
}

// TestHalfPublishedCheckpointIsTakenBack: a checkpoint that published its
// snapshot but could not create its log takes the snapshot back, so the
// records the journal goes on acknowledging in the old log are what the
// next recovery replays. Left in place, the snapshot would be recovery's
// state and the old log — 7 acknowledged admissions here — deleted as
// stale. (A take-back that fails poisons the journal; provoking a failed
// removal needs a file-system seam, so that branch is untested.)
func TestHalfPublishedCheckpointIsTakenBack(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(5)
	// A directory where the new log's temporary file goes fails createWAL
	// after the snapshot is in place.
	if err := os.Mkdir(walPath(dir, 2)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint created its log through a directory")
	}
	if _, err := os.Stat(snapPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the failed checkpoint left its snapshot: %v", err)
	}
	commit(7)
	want := m.ExportState()
	j.Close()

	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if got := m2.Running(); got != 12 || j2.Gen() != 1 {
		t.Fatalf("recovered %d jobs at generation %d, want 12 at generation 1", got, j2.Gen())
	}
	if got := m2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecoverRejectsForeignDirectory: a state directory journaled for a
// different datacenter or risk factor must be refused.
func TestRecoverRejectsForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	_, j := mustRecover(t, dir)
	j.Close()

	if _, _, err := Recover(dir, testTopo(t), 0.01, nil, WithNoSync()); err == nil {
		t.Fatal("Recover with different eps accepted the directory")
	}
	other, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{
		{UpCap: 10, Slots: 2}, {UpCap: 10, Slots: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir, other, testEps, nil, WithNoSync()); err == nil {
		t.Fatal("Recover with different topology accepted the directory")
	}
}

// TestRecoverSurvivesCheckpointCrashWindows: simulate the crash points of
// the checkpoint sequence (snapshot renamed but no new log; leftover .tmp;
// old generation not yet deleted) and require recovery to converge.
func TestRecoverSurvivesCheckpointCrashWindows(t *testing.T) {
	build := func(t *testing.T) (dir string, want *core.ManagerState) {
		dir = t.TempDir()
		m, j := mustRecover(t, dir)
		for i := 0; i < 3; i++ {
			if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want = m.ExportState()
		j.Close()
		return dir, want
	}

	t.Run("snapshot without log", func(t *testing.T) {
		dir, want := build(t)
		// Crash between snapshot rename and log creation.
		os.Remove(walPath(dir, 2))
		m, j := mustRecover(t, dir)
		defer j.Close()
		if got := m.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("state differs:\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run("stale previous generation", func(t *testing.T) {
		dir, want := build(t)
		// Crash before the old generation was deleted.
		if err := os.WriteFile(walPath(dir, 1), []byte(walMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		m, j := mustRecover(t, dir)
		defer j.Close()
		if got := m.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("state differs:\n got %+v\nwant %+v", got, want)
		}
		if _, err := os.Stat(walPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("stale generation not cleaned up")
		}
	})
	t.Run("leftover tmp", func(t *testing.T) {
		dir, want := build(t)
		if err := os.WriteFile(filepath.Join(dir, "snap-3.snap.tmp"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		m, j := mustRecover(t, dir)
		defer j.Close()
		if got := m.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("state differs:\n got %+v\nwant %+v", got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, "snap-3.snap.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("tmp file not cleaned up")
		}
	})
}

// TestClosedJournalVetoesMutations: after Close, the manager must refuse
// state changes instead of silently diverging from disk.
func TestClosedJournalVetoesMutations(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := m.AllocateHomog(homog(1, 2, 1)); !errors.Is(err, core.ErrJournal) {
		t.Fatalf("allocate after Close = %v, want ErrJournal", err)
	}
}
