// Package replica runs a hot standby for the network manager: it
// follows a primary's write-ahead log over a fetch seam, re-verifies
// every frame's CRC, applies mutations through the same replay path
// crash recovery uses (so the follower's state is bit-identical to what
// the primary would recover to), and keeps a byte-identical mirror of
// the primary's WAL files on its own disk.
//
// The follower's manager has no journal attached — it never writes the
// log it is following (invariant I9). All state enters through
// Manager.Replay. Promotion seals the mirror, recovers a fresh primary
// manager from it with the full wal.Recover path, cross-checks that the
// recovered state equals the followed state bit for bit, and then
// durably advances the fencing epoch so the deposed primary's journal
// vetoes any commit it might still attempt.
package replica

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Fetch retrieves one chunk of the primary's log past cur. It is the
// transport seam: an HTTP client in production, a direct journal call in
// tests and simulations.
type Fetch func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error)

// Lag is how far the follower trails the primary's durable frontier, as
// of the last chunk the primary answered.
type Lag struct {
	Records int    `json:"records"` // durable mutation records not yet applied
	Bytes   int64  `json:"bytes"`   // durable log bytes not yet mirrored
	Version uint64 `json:"version"` // the follower manager's committed-version clock
}

// Config configures a Standby.
type Config struct {
	// Dir is the standby's own state directory: a byte-identical mirror
	// of the primary's current generation, ready for wal.Recover.
	Dir string
	// Topo and Eps must match the primary's datacenter; meta frames are
	// checked against them before any record is applied.
	Topo *topology.Topology
	Eps  float64
	// Fetch pulls log chunks from the primary.
	Fetch Fetch
	// MgrOpts configure the follower manager identically to the primary
	// (policy, admission mode), so replayed mutations validate the same.
	MgrOpts []core.ManagerOption
	// WALOpts are applied to the journal recovered at promotion.
	WALOpts []wal.Option
	// NoSync skips fsync on the mirror (tests and simulations only).
	NoSync bool
	// PollWait is the long-poll horizon Run uses once caught up
	// (default 5s).
	PollWait time.Duration
	// OnReset, when set, is called with the new follower manager each
	// time the stream restarts from a snapshot base — the serving layer
	// re-points read traffic at it.
	OnReset func(*core.Manager)
}

// Standby follows a primary's WAL. Methods are safe for concurrent use.
type Standby struct {
	cfg Config

	// syncMu serializes sync rounds and promotion; it is held across the
	// (possibly long-polling) fetch. mu guards the state fields and is
	// only held briefly, so Lag/Cursor/Manager never block behind a poll.
	syncMu sync.Mutex

	mu         sync.Mutex
	mgr        *core.Manager
	mirror     *os.File // wal-<gen>.log in cfg.Dir, open for append
	cur        wal.Cursor
	epoch      uint64 // highest epoch seen in the stream
	genRecords int    // mutation records applied in cur.Gen

	// Primary frontier as of the last answered fetch.
	lastDurable int64
	lastRecords int

	// unsupported is sticky: the stream held a record in a format this
	// binary does not know. The frames behind it are acknowledged writes
	// the standby cannot have, so it neither follows nor promotes again —
	// not even once the primary is gone and the lag reads zero.
	unsupported error

	promoted bool
	closed   bool
}

// Errors returned by Promote and the sync loop.
var (
	// ErrLagging rejects a promotion attempted before the follower has
	// replayed the primary's whole durable tail.
	ErrLagging = errors.New("replica: standby lags the durable frontier")
	// ErrPromoted marks a standby that has already been promoted (or
	// closed); it no longer follows or serves.
	ErrPromoted = errors.New("replica: standby already promoted")
	// ErrDiverged marks a verified record the follower manager refused
	// to replay — the streams have diverged and following must stop.
	ErrDiverged = errors.New("replica: replay diverged")
)

// New returns a standby with an empty cursor; its first SyncOnce
// bootstraps from the primary's snapshot base.
func New(cfg Config) (*Standby, error) {
	if cfg.Fetch == nil {
		return nil, errors.New("replica: config needs a Fetch seam")
	}
	if cfg.Dir == "" {
		return nil, errors.New("replica: config needs a mirror dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: create mirror dir: %w", err)
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 5 * time.Second
	}
	mgr, err := core.NewManager(cfg.Topo, cfg.Eps, cfg.MgrOpts...)
	if err != nil {
		return nil, err
	}
	return &Standby{cfg: cfg, mgr: mgr}, nil
}

// Manager returns the follower manager serving read traffic right now.
// It changes when the stream resets; use OnReset to track swaps.
func (s *Standby) Manager() *core.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}

// Cursor returns the follower's replication cursor: everything before it
// is applied and mirrored.
func (s *Standby) Cursor() wal.Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Epoch returns the highest fencing epoch observed in the stream.
func (s *Standby) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Lag reports replay lag against the primary frontier from the last
// answered fetch.
func (s *Standby) Lag() Lag {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagLocked()
}

func (s *Standby) lagLocked() Lag {
	l := Lag{
		Records: s.lastRecords - s.genRecords,
		Bytes:   s.lastDurable - s.cur.Off,
		Version: s.mgr.Version(),
	}
	// A reset that moved to a newer generation makes the stale frontier
	// meaningless until the next fetch answers; clamp at zero.
	if l.Records < 0 {
		l.Records = 0
	}
	if l.Bytes < 0 {
		l.Bytes = 0
	}
	return l
}

// SyncOnce performs one fetch-and-apply round. It returns true when the
// follower is at the primary's durable frontier afterwards. wait is the
// long-poll horizon passed to the primary (0 answers immediately).
func (s *Standby) SyncOnce(ctx context.Context, wait time.Duration) (bool, error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return s.syncOnce(ctx, wait)
}

// syncOnce runs one round; callers hold syncMu. The fetch happens with
// only syncMu held — the cursor cannot move under it (every mutator
// holds syncMu), and state readers stay unblocked during a long poll.
func (s *Standby) syncOnce(ctx context.Context, wait time.Duration) (bool, error) {
	s.mu.Lock()
	if s.promoted || s.closed {
		s.mu.Unlock()
		return false, ErrPromoted
	}
	if s.unsupported != nil {
		s.mu.Unlock()
		return false, s.unsupported
	}
	cur := s.cur
	s.mu.Unlock()

	chunk, err := s.cfg.Fetch(ctx, cur, 0, wait)
	if err != nil {
		return false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted || s.closed {
		// Closed mid-fetch; the chunk must not touch the sealed mirror.
		return false, ErrPromoted
	}
	if err := s.applyChunkLocked(chunk); err != nil {
		if errors.Is(err, wal.ErrUnsupportedFormat) {
			s.unsupported = err
		}
		return false, err
	}
	s.lastDurable = chunk.Durable
	s.lastRecords = chunk.Records
	if chunk.Epoch > s.epoch {
		s.epoch = chunk.Epoch
	}
	return s.cur.Gen == chunk.Gen && s.cur.Off >= chunk.Durable, nil
}

// Run follows the primary until ctx is done, the standby is promoted or
// closed, or the journal stream turns out to be corrupt or written in a
// record format this binary does not know (a newer primary: upgrade the
// standby first, see docs/REPLICATION.md). Transient fetch
// failures (primary down, network) are retried with backoff — a standby
// outliving its primary is the point.
func (s *Standby) Run(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_, err := s.SyncOnce(ctx, s.cfg.PollWait)
		switch {
		case err == nil:
			backoff = 50 * time.Millisecond
			continue
		case errors.Is(err, ErrPromoted):
			return nil
		case fatalStream(err):
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// fatalStream reports whether err condemns the stream itself — corrupt,
// diverged, or carrying records in a format a newer primary wrote — as
// opposed to a fetch failure worth retrying. Following and promotion
// both stop on it: skipping such a frame would drop acknowledged writes.
func fatalStream(err error) bool {
	return errors.Is(err, wal.ErrCorrupt) || errors.Is(err, ErrDiverged) || errors.Is(err, wal.ErrUnsupportedFormat)
}

// applyChunkLocked verifies and applies one chunk: CRC-scan the bytes,
// decode every frame, replay mutations into the follower manager, and
// append the verified bytes to the mirror.
func (s *Standby) applyChunkLocked(chunk wal.TailChunk) error {
	if chunk.Reset {
		return s.applyResetLocked(chunk)
	}
	if len(chunk.Data) == 0 {
		return nil // caught up; nothing to apply
	}
	if chunk.Gen != s.cur.Gen || chunk.From != s.cur.Off {
		return fmt.Errorf("replica: continuation at %d/%d does not match cursor %d/%d",
			chunk.Gen, chunk.From, s.cur.Gen, s.cur.Off)
	}
	frames, clean, err := wal.ScanStream(chunk.Data)
	if err != nil || clean != int64(len(chunk.Data)) {
		return fmt.Errorf("replica: chunk at %d/%d failed verification: %w",
			chunk.Gen, chunk.From, errors.Join(err, wal.ErrCorrupt))
	}
	applied, err := s.replayFrames(frames)
	if err != nil {
		return err
	}
	if err := s.mirrorAppendLocked(chunk.Data); err != nil {
		return err
	}
	s.cur.Off += int64(len(chunk.Data))
	s.genRecords += applied
	return nil
}

// applyResetLocked restarts the stream from a snapshot base: a fresh
// follower manager from the shipped snapshot (or empty for generation
// 1), the shipped log replayed on top, and the mirror rewritten to the
// same bytes.
func (s *Standby) applyResetLocked(chunk wal.TailChunk) error {
	frames, clean, err := wal.ScanLog(chunk.Data)
	if err != nil || clean != int64(len(chunk.Data)) {
		return fmt.Errorf("replica: reset log for gen %d failed verification: %w",
			chunk.Gen, errors.Join(err, wal.ErrCorrupt))
	}
	if len(frames) == 0 {
		return fmt.Errorf("replica: reset log for gen %d has no meta frame", chunk.Gen)
	}
	if err := wal.CheckLogMeta(frames[0].Payload, s.cfg.Topo, s.cfg.Eps, chunk.Gen); err != nil {
		return err
	}

	var mgr *core.Manager
	if chunk.Snap != nil {
		st, err := wal.DecodeSnapshot(chunk.Snap, s.cfg.Topo, s.cfg.Eps, chunk.Gen)
		if err != nil {
			return err
		}
		if mgr, err = core.NewManagerFromState(s.cfg.Topo, s.cfg.Eps, st, s.cfg.MgrOpts...); err != nil {
			return err
		}
	} else {
		if chunk.Gen > 1 {
			return fmt.Errorf("replica: reset for gen %d shipped no snapshot", chunk.Gen)
		}
		var err error
		if mgr, err = core.NewManager(s.cfg.Topo, s.cfg.Eps, s.cfg.MgrOpts...); err != nil {
			return err
		}
	}

	old := s.mgr
	s.mgr = mgr
	applied, err := s.replayFrames(frames[1:])
	if err != nil {
		s.mgr = old // keep serving the last good state
		return err
	}

	if err := s.mirrorResetLocked(chunk); err != nil {
		s.mgr = old
		return err
	}
	s.cur = wal.Cursor{Gen: chunk.Gen, Off: int64(len(chunk.Data))}
	s.genRecords = applied
	if chunk.Epoch > s.epoch {
		s.epoch = chunk.Epoch
	}
	if s.cfg.OnReset != nil {
		s.cfg.OnReset(s.mgr)
	}
	return nil
}

// replayFrames decodes and applies non-meta frames, returning how many
// were mutations.
func (s *Standby) replayFrames(frames []wal.Frame) (int, error) {
	applied := 0
	for _, fr := range frames {
		rec, err := wal.DecodeRecord(fr.Payload)
		if err != nil {
			return applied, err
		}
		switch rec.Kind {
		case wal.KindEpoch:
			if rec.Epoch > s.epoch {
				s.epoch = rec.Epoch
			}
		case wal.KindMutation:
			if err := s.mgr.Replay(rec.Mutation); err != nil {
				return applied, fmt.Errorf("%w: %w", ErrDiverged, err)
			}
			applied++
		}
	}
	return applied, nil
}

// mirrorResetLocked replaces the mirror directory's contents with the
// shipped generation base.
func (s *Standby) mirrorResetLocked(chunk wal.TailChunk) error {
	if s.mirror != nil {
		s.mirror.Close()
		s.mirror = nil
	}
	for _, pat := range []string{"wal-*.log", "snap-*.snap"} {
		stale, _ := filepath.Glob(filepath.Join(s.cfg.Dir, pat))
		for _, p := range stale {
			os.Remove(p)
		}
	}
	if chunk.Snap != nil {
		if err := s.writeFile(s.snapPath(chunk.Gen), chunk.Snap); err != nil {
			return err
		}
	}
	if err := s.writeFile(s.walPath(chunk.Gen), chunk.Data); err != nil {
		return err
	}
	err := s.openMirrorLocked(wal.Cursor{Gen: chunk.Gen, Off: int64(len(chunk.Data))})
	s.syncDir()
	return err
}

// openMirrorLocked opens the mirror log for append at at, cutting off
// whatever lies past it: a promotion that failed may have left part of
// an epoch record behind the last mirrored frame.
func (s *Standby) openMirrorLocked(at wal.Cursor) error {
	f, err := os.OpenFile(s.walPath(at.Gen), os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = f.Truncate(at.Off); err == nil {
			s.mirror = f
			return nil
		}
		f.Close()
	}
	return fmt.Errorf("replica: reopen mirror: %w", err)
}

// mirrorAppendLocked appends verified bytes to the current mirror log.
func (s *Standby) mirrorAppendLocked(data []byte) error {
	if s.mirror == nil {
		return fmt.Errorf("replica: no mirror open for generation %d", s.cur.Gen)
	}
	if _, err := s.mirror.Write(data); err != nil {
		return fmt.Errorf("replica: mirror append: %w", err)
	}
	if !s.cfg.NoSync {
		if err := s.mirror.Sync(); err != nil {
			return fmt.Errorf("replica: mirror sync: %w", err)
		}
	}
	return nil
}

func (s *Standby) writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("replica: write mirror file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("replica: write mirror file: %w", err)
	}
	if !s.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("replica: sync mirror file: %w", err)
		}
	}
	return f.Close()
}

// syncDir fsyncs the mirror directory so newly created files survive a
// crash (best effort; some filesystems refuse directory fsync).
func (s *Standby) syncDir() {
	if s.cfg.NoSync {
		return
	}
	if d, err := os.Open(s.cfg.Dir); err == nil {
		//lint:ignore errflow directory fsync is best-effort; several filesystems refuse it and the file fsync already covers the contents
		d.Sync()
		d.Close()
	}
}

func (s *Standby) walPath(gen uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("wal-%d.log", gen))
}

func (s *Standby) snapPath(gen uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("snap-%d.snap", gen))
}

// Promotion is the outcome of a successful Promote: a journaled primary
// manager recovered from the mirror, fenced ahead of the old primary.
type Promotion struct {
	Mgr     *core.Manager
	Journal *wal.Journal
	Epoch   uint64 // the new fencing epoch this primary committed durably
	Lag     Lag    // lag at the moment of promotion (always zero bytes)
}

// maxDrainRounds bounds promotion's catch-up, one fetch a round.
const maxDrainRounds = 8

// Promote turns the standby into a primary. It drains what the primary
// can still serve (a dead one fails the first fetch), then refuses
// (ErrLagging) unless the follower has replayed everything the primary
// made durable. On success the mirror is recovered through the standard
// wal.Recover path, the recovered state is checked bit-identical against
// the followed state, and the fencing epoch is durably advanced past
// everything seen in the stream; the standby stops following. A failed
// promotion leaves a working standby: the mirror is reopened at the
// cursor, so the follow loop and a later Promote carry on.
func (s *Standby) Promote(ctx context.Context) (Promotion, error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	for i := 0; i < maxDrainRounds; i++ {
		caught, err := s.syncOnce(ctx, 0)
		if fatalStream(err) {
			return Promotion{}, err
		}
		if err != nil || caught {
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted || s.closed {
		return Promotion{}, ErrPromoted
	}
	if lag := s.lagLocked(); lag.Bytes > 0 {
		return Promotion{}, fmt.Errorf("%w: %d bytes (%d records) behind", ErrLagging, lag.Bytes, lag.Records)
	}

	// Seal the mirror and recover it exactly as a restarted primary
	// would recover its own directory.
	if s.mirror != nil {
		if !s.cfg.NoSync {
			if err := s.mirror.Sync(); err != nil {
				return Promotion{}, fmt.Errorf("replica: seal mirror: %w", err)
			}
		}
		s.mirror.Close()
		s.mirror = nil
	}
	prom, err := s.takeOverLocked()
	if err != nil && s.cur.Gen > 0 { // still a standby: following needs a mirror
		err = errors.Join(err, s.openMirrorLocked(s.cur))
	}
	return prom, err
}

// takeOverLocked recovers the sealed mirror, holds it against the
// followed state, advances the epoch, and only then marks s promoted.
func (s *Standby) takeOverLocked() (Promotion, error) {
	mgr, journal, err := wal.Recover(s.cfg.Dir, s.cfg.Topo, s.cfg.Eps, s.cfg.MgrOpts, s.cfg.WALOpts...)
	if err != nil {
		return Promotion{}, fmt.Errorf("replica: recover mirror: %w", err)
	}
	if !mgr.ExportState().Equal(s.mgr.ExportState()) {
		journal.Close()
		return Promotion{}, fmt.Errorf("%w: the recovered mirror's state differs from the followed state", ErrDiverged)
	}
	epoch := s.epoch + 1
	if je := journal.Epoch(); je >= epoch {
		epoch = je + 1
	}
	if err := journal.AdvanceEpoch(epoch); err != nil {
		journal.Close()
		return Promotion{}, fmt.Errorf("replica: advance epoch: %w", err)
	}
	s.promoted = true
	s.epoch = epoch
	return Promotion{Mgr: mgr, Journal: journal, Epoch: epoch, Lag: s.lagLocked()}, nil
}

// Close stops the standby without promoting it. The mirror files stay on
// disk for a later bootstrap.
func (s *Standby) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.mirror != nil {
		err := s.mirror.Close()
		s.mirror = nil
		return err
	}
	return nil
}
