package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/topology"
)

// Recover rebuilds a manager from the state directory and returns it with
// the journal already attached, creating the directory and an empty
// generation-1 log when nothing is on disk yet. The manager's state is
// the latest snapshot plus every intact log record after it; a torn or
// corrupt tail is truncated so appends continue from the last good
// record. Recovery fails — rather than guessing — when the directory
// belongs to a different topology or epsilon, or when a snapshot itself
// is unreadable.
func Recover(dir string, topo *topology.Topology, eps float64, mgrOpts []core.ManagerOption, opts ...Option) (*core.Manager, *Journal, error) {
	if err := ensureDir(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create state dir: %w", err)
	}
	j := newJournal(dir, opts)
	dc := datacenter{topo, eps, mgrOpts}

	gen, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if gen == 0 {
		gen = 1 // fresh directory: empty manager, first log generation
	}
	j.meta = dc.meta(gen)

	// Restore the snapshot base. Generation 1 legitimately has none; a
	// later generation without one is an orphaned rotation: the crash (or
	// a platform where directory fsync is a no-op) hit between the
	// snapshot's rename and the directory sync, so wal-<gen>.log became
	// durable but snap-<gen>.snap did not. The previous generation is
	// still complete on disk — a checkpoint deletes it only after the new
	// files are synced — so rebuild the checkpoint state by recovering
	// generation gen-1 in full, then replay the orphan log on top.
	m, err := dc.restoreBase(dir, gen)
	orphan := errors.Is(err, os.ErrNotExist)
	if orphan {
		if m, err = j.recoverPrevious(dc, gen-1); err != nil {
			return nil, nil, fmt.Errorf("wal: orphaned generation %d: %w", gen, err)
		}
	} else if err != nil {
		return nil, nil, err
	}

	// Replay the generation's log tail onto the snapshot base and cut the
	// file where replay stopped.
	applied, clean, err := dc.replayGen(m, dir, gen, j.raiseEpoch)
	if err != nil {
		return nil, nil, err
	}
	if err := j.open(applied, clean); err != nil {
		return nil, nil, err
	}
	if !orphan {
		// On the orphan path gen-1 is NOT stale: it is the only durable
		// base for gen's log until a later checkpoint supersedes both.
		removeStale(dir, gen)
	}
	m.SetJournal(j)
	return m, j, nil
}

// newJournal is a journal over dir with no log open yet: epoch 1, the
// default checkpoint cadence, opts applied.
func newJournal(dir string, opts []Option) *Journal {
	j := &Journal{stateDir: stateDir{dir: dir}, snapshotEvery: defaultSnapshotEvery, epoch: 1, tailers: make(chan struct{})}
	for _, o := range opts {
		o(j)
	}
	return j
}

// open opens j.meta's log for appending behind its clean length, of which
// applied mutation records are counted and all is durable — Recover's and
// Mirror.Adopt's last step before the manager gets the journal. At clean 0
// there is no log, or it is torn before its meta frame: the directory is
// fresh, or the crash hit between the snapshot rename and the log
// creation, so the snapshot alone is the state and a log is created.
func (j *Journal) open(applied int, clean int64) (err error) {
	if clean == 0 {
		j.f, j.durable, err = j.createWAL(j.meta, j.epoch)
		return err
	}
	j.appended, j.durable = applied, clean
	j.f, err = j.openLog(walPath(j.dir, j.meta.Gen), clean)
	return err
}

// recoverPrevious rebuilds the checkpoint state an orphaned generation
// was rotated from: generation gen's snapshot plus every intact record
// of wal-<gen>.log. Two consecutive incomplete checkpoints (gen > 1 with
// its own snapshot missing too) are treated as corruption — a checkpoint
// only starts deleting a generation after its successor's files are
// synced, so that state cannot arise from a single crash.
func (j *Journal) recoverPrevious(dc datacenter, gen uint64) (*core.Manager, error) {
	m, err := dc.restoreBase(j.dir, gen)
	if err == nil {
		_, _, err = dc.replayGen(m, j.dir, gen, j.raiseEpoch)
	}
	return m, err
}

// raiseEpoch is replay's onEpoch during recovery: the journal resumes
// under the highest epoch its log records.
func (j *Journal) raiseEpoch(epoch uint64) {
	if epoch > j.epoch {
		j.epoch = epoch
	}
}

// datacenter is what a state directory is recovered against: the topology
// and risk factor its meta frames must name, and the options its managers
// are built with.
type datacenter struct {
	topo    *topology.Topology
	eps     float64
	mgrOpts []core.ManagerOption
}

func (dc datacenter) meta(gen uint64) meta {
	return meta{Gen: gen, Eps: dc.eps, Nodes: dc.topo.Len(), Slots: dc.topo.TotalSlots()}
}

// base rebuilds the manager that generation gen's log replays onto: the
// state its snapshot image carries (name says where the image came from),
// or an empty manager for generation 1, which has none. Any other
// generation without one is os.ErrNotExist.
func (dc datacenter) base(gen uint64, snap []byte, name string) (*core.Manager, error) {
	if snap == nil {
		if gen > 1 {
			return nil, fmt.Errorf("wal: generation %d has no snapshot: %w", gen, os.ErrNotExist)
		}
		return core.NewManager(dc.topo, dc.eps, dc.mgrOpts...)
	}
	st, err := decodeSnapshot(snap, dc.meta(gen), name)
	if err != nil {
		return nil, err
	}
	m, err := core.NewManagerFromState(dc.topo, dc.eps, st, dc.mgrOpts...)
	if err != nil {
		return nil, fmt.Errorf("wal: restore snapshot: %w", err)
	}
	return m, nil
}

// restoreBase is base for a generation on disk.
func (dc datacenter) restoreBase(dir string, gen uint64) (*core.Manager, error) {
	path := snapPath(dir, gen)
	snap, err := readIfExists(path)
	if err != nil {
		return nil, err
	}
	return dc.base(gen, snap, filepath.Base(path))
}

// replayGen replays generation gen's log file onto m (see replay) and
// returns how many mutations it applied and the file's clean length: the
// offset a torn tail, a malformed record or one the manager refuses is cut
// at, 0 when the file is missing or torn before its meta frame. A record in
// a format this binary does not know is the one exception — a newer svcd
// wrote and acknowledged it, so that is an error and the file is left byte
// for byte as it is.
func (dc datacenter) replayGen(m *core.Manager, dir string, gen uint64, onEpoch func(uint64)) (applied int, clean int64, err error) {
	path := walPath(dir, gen)
	data, err := readIfExists(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read log: %w", err)
	}
	metaPayload, off, err := metaFrame(data, walMagic)
	if err != nil {
		return 0, 0, nil
	}
	if err := dc.meta(gen).check(metaPayload, "log"); err != nil {
		return 0, 0, err
	}
	applied, end, err := replay(m, data, off, onEpoch)
	if errors.Is(err, ErrUnsupportedFormat) {
		return 0, 0, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
	}
	return applied, int64(end), nil
}

// ErrRefused marks a verified, well-formed record that Manager.Replay
// would not apply. Recovery cuts the log there; to a standby it means the
// streams have diverged.
var ErrRefused = errors.New("wal: the manager refused a logged record")

// replay is the one loop that turns log records into manager state: it
// walks data's frames in place from off, decodes each once into one store
// reused for the walk, and either raises the epoch (onEpoch) or goes
// through the validated Manager.Replay. It stops at the first frame that
// fails a step and returns how many mutations it applied, the offset past
// the last frame it consumed, and the error that stopped it (nil at the end).
func replay(m *core.Manager, data []byte, off int, onEpoch func(uint64)) (applied, end int, err error) {
	var st recordStore
	for end = off; end < len(data); {
		payload, next, err := nextFrame(data, end)
		if err != nil {
			return applied, end, err
		}
		rec, err := st.decode(payload)
		if err != nil {
			return applied, end, err
		}
		if rec.Kind == KindEpoch {
			onEpoch(rec.Epoch)
		} else {
			if err := m.Replay(rec.Mutation); err != nil {
				return applied, end, fmt.Errorf("%w: %w", ErrRefused, err)
			}
			applied++
		}
		end = next
	}
	return applied, end, nil
}
