package wal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/topology"
)

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
}

// OpenMirror prepares dir, creating it if need be. Files already in it
// stay until the first reset chunk replaces them; what Apply promises
// about a failure covers only files the mirror itself has written.
func OpenMirror(dir string, topo *topology.Topology, eps float64, mgrOpts []core.ManagerOption, noSync bool) (*Mirror, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create mirror dir: %w", err)
	}
	return &Mirror{stateDir: stateDir{dir: dir, noSync: noSync}, dc: datacenter{topo, eps, mgrOpts}}, nil
}

// Apply takes one chunk of the primary's log: it re-verifies every
// frame's CRC, replays the records through the loop recovery runs, and
// only when all of them went in stores the bytes. A continuation chunk
// (the caller has matched it to its cursor) is replayed onto m and
// appended to the log. A reset chunk is replayed onto a new manager built
// from the shipped base, and then replaces the directory's contents. Apply
// returns the manager that holds the result (m, or the new one) and how
// many mutations it replayed. The error wraps ErrCorrupt for bytes that
// fail verification, ErrUnsupportedFormat for a record or snapshot a newer
// primary wrote, and ErrRefused for a record the manager would not take.
// Such a chunk, and a reset to another generation that fails for any
// reason, leave the directory and m as they were. Two failures do not:
// a continuation chunk that replayed and then could not be appended leaves
// m ahead of the log, and a failed reset to the generation the mirror is
// already in may have overwritten that generation's snapshot or log. What
// keeps a standby in either state from becoming a wrong primary is the
// promotion cross-check of the recovered directory against m (I9).
func (mi *Mirror) Apply(m *core.Manager, chunk TailChunk, onEpoch func(uint64)) (*core.Manager, int, error) {
	var frames []Frame
	var err error
	if chunk.Reset {
		if frames, _, err = scanFrames(chunk.Data, walMagic); err == nil && len(frames) == 0 {
			err = fmt.Errorf("%w: no meta frame", ErrCorrupt)
		}
	} else {
		frames, _, err = scanFramesAt(chunk.Data, 0)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: chunk at %d/%d failed verification: %w", chunk.Gen, chunk.From, err)
	}
	if chunk.Reset {
		if err := mi.dc.meta(chunk.Gen).check(frames[0].Payload, "log"); err != nil {
			return nil, 0, err
		}
		if m, err = mi.dc.base(chunk.Gen, chunk.Snap, "stream"); err != nil {
			return nil, 0, err
		}
		frames = frames[1:]
	}
	applied, _, err := replay(m, frames, onEpoch)
	if err == nil && chunk.Reset {
		err = mi.reset(chunk)
	} else if err == nil {
		err = mi.append(chunk.Data)
	}
	return m, applied, err
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
// the new ones replaced and cannot be put back.
func (mi *Mirror) reset(chunk TailChunk) error {
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
				os.Remove(published[i])
			}
		}
		return err
	}
	if mi.f != nil {
		mi.f.Close()
	}
	mi.f, mi.gen = f, chunk.Gen
	removeStale(mi.dir, chunk.Gen)
	mi.syncDir()
	return nil
}

// append adds verified bytes to the open log.
func (mi *Mirror) append(data []byte) error {
	if mi.f == nil {
		return errors.New("wal: no mirror log open")
	}
	if _, err := mi.f.Write(data); err != nil {
		return fmt.Errorf("wal: mirror append: %w", err)
	}
	return mi.sync(mi.f)
}

// Seal flushes and closes the log, leaving the directory ready for
// Recover. A mirror that is to take further chunks must be reopened.
func (mi *Mirror) Seal() error {
	if mi.f != nil {
		if err := mi.sync(mi.f); err != nil {
			return err
		}
	}
	return mi.Close()
}

// Reopen opens the log for append at the cursor at, cutting off whatever
// lies past it: a promotion that failed may have left part of an epoch
// record behind the last mirrored frame.
func (mi *Mirror) Reopen(at Cursor) error {
	mi.Close()
	f, err := mi.openLog(walPath(mi.dir, at.Gen), at.Off)
	mi.f, mi.gen = f, at.Gen
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
