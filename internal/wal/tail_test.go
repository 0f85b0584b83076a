package wal

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// replayShipped applies shipped record frames, skipping epoch records.
func replayShipped(t *testing.T, m *core.Manager, frames []Frame) {
	t.Helper()
	for _, fr := range frames {
		rec, err := DecodeRecord(fr.Payload)
		if err != nil {
			t.Fatalf("decode shipped record: %v", err)
		}
		if rec.Kind == KindEpoch {
			continue
		}
		if err := m.Replay(rec.Mutation); err != nil {
			t.Fatalf("replay shipped record: %v", err)
		}
	}
}

// applyTailChunk replays one chunk into a follower manager the way a
// standby would, returning the advanced cursor.
func applyTailChunk(t *testing.T, m **core.Manager, cur Cursor, chunk TailChunk) Cursor {
	t.Helper()
	if chunk.Reset {
		if chunk.Snap != nil {
			want := meta{Gen: chunk.Gen, Eps: testEps, Nodes: testTopo(t).Len(), Slots: testTopo(t).TotalSlots()}
			st, err := decodeSnapshot(chunk.Snap, want, "stream")
			if err != nil {
				t.Fatalf("decode shipped snapshot: %v", err)
			}
			mm, err := core.NewManagerFromState(testTopo(t), testEps, st)
			if err != nil {
				t.Fatal(err)
			}
			*m = mm
		} else {
			mm, err := core.NewManager(testTopo(t), testEps)
			if err != nil {
				t.Fatal(err)
			}
			*m = mm
		}
		frames, clean, err := scanFrames(chunk.Data, walMagic)
		if err != nil || clean != len(chunk.Data) {
			t.Fatalf("reset chunk not frame-clean: %v (clean %d of %d)", err, clean, len(chunk.Data))
		}
		replayShipped(t, *m, frames[1:])
		return Cursor{Gen: chunk.Gen, Off: int64(len(chunk.Data))}
	}
	if len(chunk.Data) == 0 {
		return cur
	}
	if chunk.Gen != cur.Gen || chunk.From != cur.Off {
		t.Fatalf("continuation %d/%d does not match cursor %d/%d", chunk.Gen, chunk.From, cur.Gen, cur.Off)
	}
	frames, clean, err := scanFramesAt(chunk.Data, 0)
	if err != nil || clean != len(chunk.Data) {
		t.Fatalf("continuation chunk not frame-clean: %v", err)
	}
	replayShipped(t, *m, frames)
	cur.Off += int64(len(chunk.Data))
	return cur
}

// followToFrontier pulls chunks until caught up, returning the follower
// cursor.
func followToFrontier(t *testing.T, j *Journal, m **core.Manager, cur Cursor) Cursor {
	t.Helper()
	for {
		chunk, err := j.Tail(context.Background(), cur, 0, 0)
		if err != nil {
			t.Fatalf("tail at %d/%d: %v", cur.Gen, cur.Off, err)
		}
		next := applyTailChunk(t, m, cur, chunk)
		if next == cur && !chunk.Reset {
			return cur
		}
		cur = next
	}
}

// TestTailBootstrapAndFollow: a fresh cursor resets to the full gen-1
// log; following then reproduces the primary's state bit for bit.
func TestTailBootstrapAndFollow(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()
	chaosWorkload(t, m)

	var follower *core.Manager
	cur := followToFrontier(t, j, &follower, Cursor{})
	if cur != j.DurableCursor() {
		t.Fatalf("follower cursor %+v != durable %+v", cur, j.DurableCursor())
	}
	if !reflect.DeepEqual(follower.ExportState(), m.ExportState()) {
		t.Fatal("followed state differs from primary state")
	}

	// More commits continue the stream without a reset.
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	chunk, err := j.Tail(context.Background(), cur, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Reset {
		t.Fatal("continuation turned into a reset")
	}
	cur = applyTailChunk(t, &follower, cur, chunk)
	if !reflect.DeepEqual(follower.ExportState(), m.ExportState()) {
		t.Fatal("followed state diverged after continuation")
	}
	_ = cur
}

// TestTailLongPollWakesOnCommit: a caught-up tail blocks until a commit
// makes new bytes durable, then returns them.
func TestTailLongPollWakesOnCommit(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()

	var follower *core.Manager
	cur := followToFrontier(t, j, &follower, Cursor{})

	type result struct {
		chunk TailChunk
		err   error
	}
	done := make(chan result, 1)
	go func() {
		chunk, err := j.Tail(context.Background(), cur, 0, 5*time.Second)
		done <- result{chunk, err}
	}()
	// Give the long poll a moment to park, then commit.
	time.Sleep(20 * time.Millisecond)
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("long poll: %v", r.err)
		}
		if len(r.chunk.Data) == 0 {
			t.Fatal("long poll woke with no data after a commit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke after a commit")
	}
}

// TestTailLongPollExpires: with no commits the poll returns an empty
// continuation at its horizon instead of hanging.
func TestTailLongPollExpires(t *testing.T) {
	dir := t.TempDir()
	_, j := mustRecover(t, dir)
	defer j.Close()
	cur := followToFrontier(t, j, new(*core.Manager), Cursor{})
	start := time.Now()
	chunk, err := j.Tail(context.Background(), cur, 0, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Data) != 0 || chunk.Reset {
		t.Fatalf("expired poll returned data: %+v", chunk)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("poll did not expire at its horizon")
	}
}

// TestTailResetAcrossCheckpoint: a cursor left in a dead generation is
// restarted with the new generation's snapshot base and the follower
// converges to the primary's state.
func TestTailResetAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()

	var follower *core.Manager
	cur := followToFrontier(t, j, &follower, Cursor{})

	chaosWorkload(t, m)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateHomog(homog(1, 4, 1)); err != nil {
		t.Fatal(err)
	}

	chunk, err := j.Tail(context.Background(), cur, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.Reset {
		t.Fatalf("stale-generation cursor %+v did not reset", cur)
	}
	if chunk.Snap == nil {
		t.Fatal("reset past a checkpoint shipped no snapshot")
	}
	cur = applyTailChunk(t, &follower, cur, chunk)
	cur = followToFrontier(t, j, &follower, cur)
	if !reflect.DeepEqual(follower.ExportState(), m.ExportState()) {
		t.Fatal("followed state differs after checkpoint reset")
	}
}

// TestTailCapsOnFrameBoundary: a tiny max_bytes pages the log in several
// chunks, each cut exactly on a frame boundary.
func TestTailCapsOnFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()
	chaosWorkload(t, m)

	cur := Cursor{}
	var follower *core.Manager
	pages := 0
	for {
		// minTailBytes is the floor, so the cap rounds up to it; the log
		// from chaosWorkload is far smaller, making this one page — use
		// the internal knob instead to force paging.
		chunk, err := j.Tail(context.Background(), cur, minTailBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		next := applyTailChunk(t, &follower, cur, chunk)
		if next == cur && !chunk.Reset {
			break
		}
		cur = next
		pages++
		if pages > 1000 {
			t.Fatal("paging never converged")
		}
	}
	if !reflect.DeepEqual(follower.ExportState(), m.ExportState()) {
		t.Fatal("paged follow diverged")
	}
}

// TestFenceVetoesCommits: after Fence, every commit path fails with
// ErrFenced — the journal seam vetoes a deposed primary's writes.
func TestFenceVetoesCommits(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}

	if err := j.Fence(1); err == nil {
		t.Fatal("fencing at the current epoch must be refused")
	}
	if err := j.Fence(2); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if err := j.Fence(2); err != nil {
		t.Fatalf("fence must be idempotent: %v", err)
	}

	if _, err := m.AllocateHomog(homog(1, 1, 0.5)); !errors.Is(err, ErrFenced) {
		t.Fatalf("allocate on fenced journal: %v, want ErrFenced", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, ErrFenced) {
		t.Fatalf("checkpoint on fenced journal: %v, want ErrFenced", err)
	}
	if err := j.AdvanceEpoch(3); !errors.Is(err, ErrFenced) {
		t.Fatalf("epoch advance on fenced journal: %v, want ErrFenced", err)
	}

	// The fenced journal still serves its durable prefix.
	chunk, err := j.Tail(context.Background(), Cursor{}, 0, 0)
	if err != nil {
		t.Fatalf("tail on fenced journal: %v", err)
	}
	if len(chunk.Data) == 0 {
		t.Fatal("fenced journal shipped no bytes")
	}
}

// TestAdvanceEpochDurable: the epoch survives recovery, rides the log
// stream, and keeps commits flowing at the new epoch.
func TestAdvanceEpochDurable(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.AdvanceEpoch(5); err != nil {
		t.Fatalf("advance epoch: %v", err)
	}
	if got := j.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	if err := j.AdvanceEpoch(5); err == nil {
		t.Fatal("re-advancing to the same epoch must fail")
	}
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatalf("allocate after epoch advance: %v", err)
	}
	want := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	m2, j2, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j2.Close()
	if got := j2.Epoch(); got != 5 {
		t.Fatalf("recovered epoch = %d, want 5", got)
	}
	if !reflect.DeepEqual(m2.ExportState(), want) {
		t.Fatal("epoch record corrupted replayed state")
	}

	// Rotation carries the epoch into the next generation's log.
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chunk, err := j2.Tail(context.Background(), Cursor{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Epoch != 5 {
		t.Fatalf("tail after rotation reports epoch %d, want 5", chunk.Epoch)
	}
	m3, j3, err := Recover(copyGenDir(t, dir, j2.Gen()), testTopo(t), testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("recover rotated gen: %v", err)
	}
	defer j3.Close()
	if got := j3.Epoch(); got != 5 {
		t.Fatalf("epoch after rotation recovery = %d, want 5", got)
	}
	if !reflect.DeepEqual(m3.ExportState(), m2.ExportState()) {
		t.Fatal("rotated recovery differs")
	}
}

// copyGenDir copies one generation's files into a fresh directory.
func copyGenDir(t *testing.T, src string, gen uint64) string {
	t.Helper()
	dir := t.TempDir()
	if snap, err := os.ReadFile(snapPath(src, gen)); err == nil {
		if err := os.WriteFile(snapPath(dir, gen), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(walPath(src, gen))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, gen), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverOrphanedGeneration: a crash between the checkpoint's
// snapshot rename+log creation and the directory sync can leave
// wal-<g+1>.log visible while snap-<g+1>.snap is gone. Recovery must
// fall back to generation g's snapshot and full log, then replay
// wal-<g+1> on top — never refuse, never lose the tail.
func TestRecoverOrphanedGeneration(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	chaosWorkload(t, m)

	// The orphan window: the checkpoint's directory mutations (snapshot
	// rename, new log creation, old-generation unlinks) hit the kernel
	// but the crash lands before the directory fsync makes them all
	// durable. The surviving view can show wal-2.log but no snap-2.snap,
	// with generation 1 still fully present. Capture gen 1 before the
	// checkpoint so it can be restored into that state afterwards.
	oldLog, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := j.Gen()
	// Records after the rotation live only in wal-<gen>.log.
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	want := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(snapPath(dir, gen)); err != nil {
		t.Fatalf("remove snap-%d: %v", gen, err)
	}
	if err := os.WriteFile(walPath(dir, 1), oldLog, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, j2, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("recover orphaned generation: %v", err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(m2.ExportState(), want) {
		t.Fatal("orphan recovery lost state")
	}
	assertUsable(t, m2, j2)

	// The next checkpoint publishes a fresh snapshot and cleans up.
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after orphan recovery: %v", err)
	}
	if _, err := os.Stat(snapPath(dir, j2.Gen())); err != nil {
		t.Fatalf("checkpoint after orphan recovery left no snapshot: %v", err)
	}
}
