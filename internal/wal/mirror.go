package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/topology"
)

// ErrMirror marks a mirror whose directory no longer provably holds what
// its manager replayed: a write that failed half way, or files that are
// not the bytes the mirror put there. To a standby that is a divergence.
var ErrMirror = errors.New("wal: the mirror does not hold what was replayed")

// Mirror is a standby's copy of its primary's state directory: the
// generation the primary is in, snapshot and log, byte for byte, so that
// Recover on it yields what the primary would recover to. Every chunk
// goes in through Apply. A Mirror is not safe for concurrent use; the
// standby calls it under its own lock.
type Mirror struct {
	stateDir
	dc  datacenter
	f   *os.File // the generation's log, open for append; nil before the first reset and while sealed
	gen uint64   // the generation f is, or before Seal was, the log of; 0 before the first reset

	// The books: what the mirror itself wrote to the generation's two
	// files, and how many mutations of the log it replayed. Seal holds the
	// directory against them.
	snap, log fileSum
	records   int

	fault error // sticky: the manager and the directory may disagree (see Apply)
}

// fileSum is a file's length and the CRC32-C of its bytes.
type fileSum struct {
	n   int64
	crc uint32
}

func (s fileSum) plus(p []byte) fileSum {
	return fileSum{s.n + int64(len(p)), crc32.Update(s.crc, castagnoli, p)}
}

// check reads the file at path through — absent reads as empty:
// generation 1 has no snapshot — and answers ErrMirror unless it is byte
// for byte what the sum was taken over.
func (s fileSum) check(path string) error {
	var got fileSum
	f, err := openRead(path)
	if err == nil {
		h := crc32.New(castagnoli)
		got.n, err = io.Copy(h, f)
		got.crc = h.Sum32()
		f.Close()
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if got != s {
		return fmt.Errorf("%w: %s is %d bytes crc %08x, the mirror wrote %d crc %08x", ErrMirror, path, got.n, got.crc, s.n, s.crc)
	}
	return nil
}

// OpenMirror prepares dir, creating it if need be. Files already in it
// stay until the first reset chunk replaces them; what Apply promises
// about a failure covers only files the mirror itself has written.
func OpenMirror(dir string, topo *topology.Topology, eps float64, noSync bool) (*Mirror, error) {
	if err := ensureDir(dir); err != nil {
		return nil, fmt.Errorf("wal: create mirror dir: %w", err)
	}
	return &Mirror{stateDir: stateDir{dir: dir, noSync: noSync}, dc: datacenter{topo: topo, eps: eps}}, nil
}

// Cursor is where the mirror is complete up to: its generation and the
// length of that generation's log, Records mutations of which it replayed.
func (mi *Mirror) Cursor() Cursor { return Cursor{Gen: mi.gen, Off: mi.log.n} }
func (mi *Mirror) Records() int   { return mi.records }

// Apply takes one chunk of the primary's log: it re-verifies every
// frame's CRC, replays the records through the loop recovery runs, and
// only when all of them went in stores the bytes. A continuation chunk
// (the caller has matched it to Cursor) is replayed onto m and appended
// to the log. A reset chunk is replayed onto a new manager built from the
// shipped base, replaces the directory's contents, and the directory is
// then recovered and held against that manager (verify). Apply returns
// the manager that holds the result (m, or the new one). The error wraps
// ErrCorrupt for bytes that fail verification, ErrUnsupportedFormat for a
// record or snapshot a newer primary wrote, and ErrRefused for a record
// the manager would not take. A chunk refused before a record of it went
// in, and a reset to another generation that fails for any reason, leave
// the directory and m as they were. Three failures do not, and set the
// sticky fault (this and every later Apply and Seal answer ErrMirror): a
// continuation chunk that moved m and then stopped or could not be
// appended, a reset to the mirror's own generation that failed after
// overwriting its snapshot or log, and a reset whose directory does not
// recover to the manager it was replayed onto.
func (mi *Mirror) Apply(m *core.Manager, chunk TailChunk, onEpoch func(uint64)) (*core.Manager, error) {
	if mi.fault != nil {
		return nil, mi.fault
	}
	var metaPayload []byte
	off, err := 0, error(nil)
	if chunk.Reset {
		metaPayload, off, err = metaFrame(chunk.Data, walMagic)
	}
	for at := off; err == nil && at < len(chunk.Data); {
		_, at, err = nextFrame(chunk.Data, at)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: chunk at %d/%d failed verification: %w", chunk.Gen, chunk.From, err)
	}
	if chunk.Reset {
		if err := mi.dc.meta(chunk.Gen).check(metaPayload, "log"); err != nil {
			return nil, err
		}
		if m, err = mi.dc.base(chunk.Gen, chunk.Snap, "stream"); err != nil {
			return nil, err
		}
	}
	applied, _, err := replay(m, chunk.Data, off, onEpoch)
	if chunk.Reset {
		if err == nil {
			err = mi.reset(chunk, applied, m)
		}
		return m, err
	}
	if err == nil {
		err = mi.append(chunk.Data)
	} else if applied == 0 {
		return nil, err // no record of the chunk went in
	}
	if err != nil {
		mi.fault = fmt.Errorf("%w: the manager is ahead of the log at %d/%d: %w", ErrMirror, mi.gen, mi.log.n, err)
		return nil, mi.fault
	}
	mi.records += applied
	return m, nil
}

// reset makes the directory hold exactly the shipped generation. The new
// base is published first — snapshot, then log, each through writeDurably
// — and the generations it supersedes are deleted after, the order
// Checkpoint uses: a crash in between leaves the old generation complete,
// or the new snapshot beside it (which Recover takes as the state, as
// after a crash inside a checkpoint), or the new generation complete. A
// failure takes back what it published, log first, so the old generation
// stays the directory's newest and still matches the manager the standby
// kept — unless the reset was to the mirror's own generation, whose files
// the new ones replaced and cannot be put back: that is a fault.
func (mi *Mirror) reset(chunk TailChunk, applied int, m *core.Manager) error {
	var published []string
	publish := func(path string, data []byte) error {
		err := mi.writeDurably(path, data)
		if err == nil {
			published = append(published, path)
		}
		return err
	}
	log := walPath(mi.dir, chunk.Gen)
	var err error
	if chunk.Snap != nil {
		err = publish(snapPath(mi.dir, chunk.Gen), chunk.Snap)
	}
	if err == nil {
		err = publish(log, chunk.Data)
	}
	var f *os.File
	if err == nil {
		f, err = mi.openLog(log, int64(len(chunk.Data)))
	}
	if err != nil {
		if chunk.Gen != mi.gen {
			for i := len(published) - 1; i >= 0; i-- {
				remove(published[i])
			}
		} else if len(published) > 0 {
			mi.fault = fmt.Errorf("%w: a reset onto the mirror's own generation %d failed half way: %w", ErrMirror, mi.gen, err)
			err = mi.fault
		}
		return err
	}
	if mi.f != nil {
		mi.f.Close()
	}
	mi.f, mi.gen = f, chunk.Gen
	mi.snap, mi.log, mi.records = fileSum{}.plus(chunk.Snap), fileSum{}.plus(chunk.Data), applied
	removeStale(mi.dir, chunk.Gen)
	mi.syncDir()
	mi.fault = mi.verify(m)
	return mi.fault
}

// append adds verified bytes to the open log.
func (mi *Mirror) append(data []byte) error {
	if mi.f == nil {
		return errors.New("wal: no mirror log open")
	}
	if _, err := mi.f.Write(data); err != nil {
		return fmt.Errorf("wal: mirror append: %w", err)
	}
	mi.log = mi.log.plus(data)
	return mi.sync(mi.f)
}

// verify proves recovery and following agree, where it costs no tenant
// anything: it rebuilds the generation from the directory as Recover does
// — restoreBase and replayGen, which cut, create and delete nothing — and
// holds the result against m, which replayed the same bytes from the
// stream. Anything but the same records and an equal state is ErrMirror.
func (mi *Mirror) verify(m *core.Manager) error {
	var applied int
	var clean int64
	scratch, err := mi.dc.restoreBase(mi.dir, mi.gen)
	if err == nil {
		applied, clean, err = mi.dc.replayGen(scratch, mi.dir, mi.gen, func(uint64) {})
	}
	if err == nil && (applied != mi.records || clean != mi.log.n || !scratch.ExportState().Equal(m.ExportState())) {
		err = fmt.Errorf("%d records to offset %d against the %d to %d replayed, or another state", applied, clean, mi.records, mi.log.n)
	}
	if err != nil {
		return fmt.Errorf("%w: generation %d does not recover to the followed state: %w", ErrMirror, mi.gen, err)
	}
	return nil
}

// Seal flushes and closes the log and then proves the directory is what
// was replayed onto m: its newest generation is the mirror's, and snapshot
// and log each have exactly the length and CRC32-C of what the mirror
// wrote — one read of both files (the byte count is returned) in place of
// a recovery and a state compare, which run too under -tags invariants. A
// mirror that is to take further chunks must be reopened.
func (mi *Mirror) Seal(m *core.Manager) (int64, error) {
	err := mi.fault
	if err == nil && mi.f != nil {
		err = mi.sync(mi.f)
	}
	if cerr := mi.Close(); err == nil {
		err = cerr
	}
	var gen uint64
	if err == nil {
		gen, err = scanDir(mi.dir)
	}
	if err == nil && gen != mi.gen {
		err = fmt.Errorf("%w: the directory's newest generation is %d, the mirror's %d", ErrMirror, gen, mi.gen)
	}
	if err == nil {
		err = mi.snap.check(snapPath(mi.dir, mi.gen))
	}
	if err == nil {
		err = mi.log.check(walPath(mi.dir, mi.gen))
	}
	if err == nil && invariantsEnabled {
		err = mi.verify(m)
	}
	return mi.snap.n + mi.log.n, err
}

// Adopt turns the sealed mirror into m's journal: the log opened for
// append where the mirror left it, same generation, the records mirrored
// in it counted, all of it durable, under the highest epoch the stream
// showed (seen) — what Recover would build from the directory, without
// reading it — and then advanced one epoch, durably, before m sees it. On
// failure m has no journal and the mirror can be reopened. A mirror that
// never took a chunk is adopted as an empty generation 1.
func (mi *Mirror) Adopt(m *core.Manager, seen uint64, opts ...Option) (*Journal, error) {
	j := newJournal(mi.dir, opts)
	j.raiseEpoch(seen)
	j.meta = mi.dc.meta(max(mi.gen, 1))
	err := j.open(mi.records, mi.log.n)
	if err == nil {
		err = j.AdvanceEpoch(j.epoch + 1)
	}
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("wal: adopt mirror: %w", err)
	}
	m.SetJournal(j)
	return j, nil
}

// Reopen opens the log for append where the mirror left it, cutting off
// whatever lies past that: a promotion that failed may have left part of
// an epoch record behind the last mirrored frame.
func (mi *Mirror) Reopen() error {
	mi.Close()
	if mi.gen == 0 {
		return nil
	}
	var err error
	mi.f, err = mi.openLog(walPath(mi.dir, mi.gen), mi.log.n)
	return err
}

// Close closes the log. The files stay on disk for a later bootstrap.
func (mi *Mirror) Close() error {
	if mi.f == nil {
		return nil
	}
	err := mi.f.Close()
	mi.f = nil
	return err
}
