package wal

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/core"
)

func mustMirror(t *testing.T, dir string) *Mirror {
	t.Helper()
	mi, err := OpenMirror(dir, testTopo(t), testEps, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mi.Close() })
	return mi
}

// mirrorToFrontier feeds j's tail to the mirror until it is caught up
// and returns the follower manager.
func mirrorToFrontier(t *testing.T, mi *Mirror, j *Journal, m *core.Manager) *core.Manager {
	t.Helper()
	for {
		chunk, err := j.Tail(context.Background(), mi.Cursor(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !chunk.Reset && len(chunk.Data) == 0 {
			return m
		}
		if m, err = mi.Apply(m, chunk, func(uint64) {}); err != nil {
			t.Fatalf("Apply at %+v: %v", mi.Cursor(), err)
		}
	}
}

// TestMirrorVerify: the mirror's recover-and-compare says nothing while
// the directory recovers to the followed manager — across a bootstrap,
// continuation chunks and a reset onto a checkpoint — and ErrMirror as
// soon as either side moves alone: the manager by one unjournaled
// admission, the directory by one record.
func TestMirrorVerify(t *testing.T) {
	m, j := mustRecover(t, t.TempDir())
	defer j.Close()
	chaosWorkload(t, m)
	mi := mustMirror(t, t.TempDir())
	fm := mirrorToFrontier(t, mi, j, nil)
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	fm = mirrorToFrontier(t, mi, j, fm) // a continuation chunk
	if err := mi.verify(fm); err != nil {
		t.Fatalf("verify on generation 1: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chaosWorkload(t, m)
	fm = mirrorToFrontier(t, mi, j, fm)
	if mi.Cursor().Gen != 2 || mi.Records() != j.Appended() || !fm.ExportState().Equal(m.ExportState()) {
		t.Fatalf("test setup: mirror at %+v with %d records, primary at generation 2 with %d", mi.Cursor(), mi.Records(), j.Appended())
	}
	if err := mi.verify(fm); err != nil {
		t.Fatalf("verify on generation 2: %v", err)
	}

	// The manager alone: an admission no log holds.
	ahead, err := core.NewManagerFromState(testTopo(t), testEps, fm.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ahead.AllocateHomog(homog(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := mi.verify(ahead); !errors.Is(err, ErrMirror) {
		t.Fatalf("verify against a manager one admission ahead: %v, want ErrMirror", err)
	}

	// The directory alone: the log's last record gone.
	log := walPath(mi.dir, 2)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := scanFrames(data, walMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, data[:frames[len(frames)-2].End], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mi.verify(fm); !errors.Is(err, ErrMirror) {
		t.Fatalf("verify over a log one record short: %v, want ErrMirror", err)
	}
}

// TestResetVerifiesWhatItPublished: a reset is held against a recovery of
// the directory the moment it is published, not at promotion. A standby
// directory may hold files from an earlier life, and the one a reset
// neither replaces nor deletes is a snapshot of the generation it resets
// onto when the primary ships none (generation 1): Recover would take it
// as that generation's base, the stream never mentioned it. The reset
// that leaves the two disagreeing faults the mirror there and then, and
// the fault is sticky.
func TestResetVerifiesWhatItPublished(t *testing.T) {
	m, j := mustRecover(t, t.TempDir())
	defer j.Close()
	chaosWorkload(t, m)

	dir := t.TempDir()
	other, err := core.NewManager(testTopo(t), testEps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.AllocateHomog(homog(2, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	mi := mustMirror(t, dir)
	stale, err := encodeSnapshot(mi.dc.meta(1), other.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir, 1), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	chunk, err := j.Tail(context.Background(), Cursor{}, 0, 0)
	if err != nil || !chunk.Reset || chunk.Snap != nil {
		t.Fatalf("test setup: bootstrap chunk %+v (err %v), want a reset without a snapshot", chunk.Gen, err)
	}
	if _, err := mi.Apply(nil, chunk, func(uint64) {}); !errors.Is(err, ErrMirror) {
		t.Fatalf("reset beside a snapshot the stream never shipped: %v, want ErrMirror", err)
	}
	if err := os.Remove(snapPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mi.Apply(nil, chunk, func(uint64) {}); !errors.Is(err, ErrMirror) {
		t.Fatalf("the next chunk, the directory healed behind the mirror's back: %v, want the fault to stick", err)
	}
	if _, err := mi.Seal(nil); !errors.Is(err, ErrMirror) {
		t.Fatalf("Seal on a faulted mirror: %v, want ErrMirror", err)
	}
}
