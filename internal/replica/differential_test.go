package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// image is one generation of a state directory: its snapshot (nil for
// generation 1) and its log, as bytes.
type image struct {
	gen       uint64
	snap, log []byte
}

func readImage(t *testing.T, dir string, gen uint64) image {
	t.Helper()
	im := image{gen: gen}
	var err error
	if im.log, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))); err != nil {
		t.Fatal(err)
	}
	if gen > 1 {
		if im.snap, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("snap-%d.snap", gen))); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// with returns the image with extra bytes behind its log.
func (im image) with(extra ...[]byte) image {
	im.log = append([]byte(nil), im.log...)
	for _, e := range extra {
		im.log = append(im.log, e...)
	}
	return im
}

// recoverImage runs wal.Recover over the image's files.
func recoverImage(t *testing.T, im image) (*core.Manager, *wal.Journal, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", im.gen)), im.log, 0o644); err != nil {
		t.Fatal(err)
	}
	if im.snap != nil {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%d.snap", im.gen)), im.snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return wal.Recover(dir, testTopo(t), testEps, nil, wal.WithNoSync())
}

// chunks cuts the image the way a primary could serve it. Whole: one reset
// chunk with everything. Otherwise a reset chunk carrying the base — the
// snapshot and the log up to its meta frame — and then one continuation
// chunk per frame, the bytes behind the last intact frame (a torn tail)
// going out as a final chunk of their own, so the standby meets the
// frames one at a time, as recovery's loop does.
func (im image) chunks(t *testing.T, whole bool) []wal.TailChunk {
	t.Helper()
	frames, clean, _ := wal.ScanLog(im.log)
	if len(frames) == 0 {
		t.Fatal("test setup: image without a meta frame")
	}
	chunk := func(from, to int) wal.TailChunk {
		return wal.TailChunk{
			Gen: im.gen, From: int64(from), Data: im.log[from:to],
			Durable: int64(len(im.log)), Records: len(frames) - 1, Epoch: 1,
		}
	}
	cut := len(im.log)
	if !whole {
		cut = frames[0].End
	}
	reset := chunk(0, cut)
	reset.Reset, reset.Snap = true, im.snap
	out := []wal.TailChunk{reset}
	if !whole {
		for i, fr := range frames[1:] {
			out = append(out, chunk(frames[i].End, fr.End))
		}
		if clean < len(im.log) {
			out = append(out, chunk(clean, len(im.log)))
		}
	}
	return out
}

// follow feeds the chunks to a fresh standby until one is refused.
func follow(t *testing.T, chunks []wal.TailChunk) (s *Standby, fetches *int, err error) {
	t.Helper()
	fetches = new(int)
	s, err = New(Config{
		Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps, NoSync: true,
		Fetch: func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
			*fetches++
			if *fetches > len(chunks) { // the image is spent: the cursor is the frontier
				return wal.TailChunk{Gen: cur.Gen, From: cur.Off, Durable: cur.Off, Epoch: 1}, nil
			}
			return chunks[*fetches-1], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for err == nil && *fetches < len(chunks) {
		_, err = s.SyncOnce(context.Background(), 0)
	}
	return s, fetches, err
}

// frame builds one intact frame around payload.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// TestFollowerMatchesRecover holds the standby to crash recovery, image
// by image: both run wal's one replay loop, so on the same bytes they
// must apply the same records, see the same epoch, reach the same state
// and stop at the same frame — recovery by cutting the log there (or, for
// a format it does not know, refusing the directory), the standby with an
// error of the matching class. Served as one reset chunk instead, an
// image with such a frame is refused whole and moves nothing.
func TestFollowerMatchesRecover(t *testing.T) {
	// Generation 1: every record kind, two epoch records among them.
	dir1 := t.TempDir()
	m, j := mustPrimary(t, dir1)
	workload(t, m)
	if err := j.AdvanceEpoch(3); err != nil {
		t.Fatal(err)
	}
	workload(t, m)
	if err := j.AdvanceEpoch(5); err != nil {
		t.Fatal(err)
	}
	gen1 := readImage(t, dir1, 1)
	// Generation 2: a snapshot, and a log that opens with an epoch record.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	workload(t, m)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	gen2 := readImage(t, dir1, 2)
	last, _, _ := wal.ScanLog(gen1.log)
	lastFrame := gen1.log[last[len(last)-2].End:]

	// Alloc, release, and the release once more: a record like any other
	// to the codec, and one the manager refuses.
	dirR := t.TempDir()
	m, j = mustPrimary(t, dirR)
	a, err := m.AllocateHomog(homog(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	refused := readImage(t, dirR, 1)
	rel, _, _ := wal.ScanLog(refused.log)
	refused = refused.with(refused.log[rel[1].End:rel[2].End], lastFrame)

	for _, tc := range []struct {
		name       string
		im         image
		recoverErr error // what Recover refuses the directory with; nil: it recovers, cutting the log at the first bad frame
		standbyErr error // what the standby stops with at that frame; nil: it takes the whole image
	}{
		{name: "mutations and epoch records, no snapshot", im: gen1},
		{name: "snapshot base", im: gen2},
		{name: "legacy-v1", im: readImage(t, filepath.Join("..", "wal", "testdata", "legacy-v1"), 2)},
		{name: "torn tail", im: gen1.with(lastFrame[:len(lastFrame)/2]), standbyErr: wal.ErrCorrupt},
		{name: "malformed record", im: gen1.with(frame([]byte{0x01, 0xff}), lastFrame), standbyErr: wal.ErrCorrupt},
		{name: "unknown format tag", im: gen2.with(frame([]byte{0x02, 0xde, 0xad}), lastFrame),
			recoverErr: wal.ErrUnsupportedFormat, standbyErr: wal.ErrUnsupportedFormat},
		{name: "refused record", im: refused, standbyErr: ErrDiverged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rm, rj, rerr := recoverImage(t, tc.im)
			if !errors.Is(rerr, tc.recoverErr) || (rerr != nil) != (tc.recoverErr != nil) {
				t.Fatalf("Recover: %v, want %v", rerr, tc.recoverErr)
			}
			if rerr == nil {
				defer rj.Close()
			}

			s, fetches, serr := follow(t, tc.im.chunks(t, false))
			if !errors.Is(serr, tc.standbyErr) || (serr != nil) != (tc.standbyErr != nil) {
				t.Fatalf("standby, frame by frame: %v, want %v", serr, tc.standbyErr)
			}
			if tc.standbyErr == ErrDiverged && !errors.Is(serr, wal.ErrRefused) {
				t.Fatalf("ErrDiverged does not wrap the replay loop's refusal: %v", serr)
			}
			if rerr == nil {
				if got, want := s.mirror.Records(), rj.Appended(); got != want {
					t.Errorf("standby applied %d records, recovery %d", got, want)
				}
				if got, want := s.Epoch(), rj.Epoch(); got != want {
					t.Errorf("standby at epoch %d, recovery at %d", got, want)
				}
				if !s.Manager().ExportState().Equal(rm.ExportState()) {
					t.Error("standby and recovery stopped in different states")
				}
			}
			// An unreadable format is the one refusal that sticks: the next
			// round answers from memory, without a fetch.
			before := *fetches
			_, again := s.SyncOnce(context.Background(), 0)
			if sticky := tc.standbyErr == wal.ErrUnsupportedFormat; sticky != (*fetches == before) || sticky && !errors.Is(again, serr) {
				t.Errorf("after %v the next round made %d fetches and answered %v", serr, *fetches-before, again)
			}

			s, _, serr = follow(t, tc.im.chunks(t, true))
			if !errors.Is(serr, tc.standbyErr) || (serr != nil) != (tc.standbyErr != nil) {
				t.Fatalf("standby, one reset chunk: %v, want %v", serr, tc.standbyErr)
			}
			switch {
			case serr != nil:
				if s.Cursor() != (wal.Cursor{}) || s.Manager().Running() != 0 {
					t.Error("a refused reset chunk moved the follower")
				}
				if files, err := os.ReadDir(s.cfg.Dir); err != nil || len(files) != 0 {
					t.Errorf("a refused reset chunk left files in the mirror: %v (err %v)", files, err)
				}
			case s.mirror.Records() != rj.Appended() || s.Epoch() != rj.Epoch() || !s.Manager().ExportState().Equal(rm.ExportState()):
				t.Errorf("one reset chunk: %d records at epoch %d, recovery %d at %d, or the states differ",
					s.mirror.Records(), s.Epoch(), rj.Appended(), rj.Epoch())
			}
		})
	}
}
