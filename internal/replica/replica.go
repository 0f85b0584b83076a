// Package replica runs a hot standby for the network manager: it
// follows a primary's write-ahead log over a fetch seam and hands every
// chunk to a wal.Mirror, which re-verifies each frame's CRC, applies the
// mutations through the replay loop crash recovery runs (so the
// follower's state is bit-identical to what the primary would recover
// to), and keeps a byte-identical copy of the primary's WAL files on the
// standby's disk. What is this package's own is the cursor, the lag, the
// fetch loop with its backoff, and the promotion protocol.
//
// The follower's manager has no journal attached — it never writes the
// log it is following (invariant I9). All state enters through
// wal.Mirror.Apply, and the mirror holds every generation it publishes
// against a recovery of its own directory there and then. Promotion
// therefore rebuilds nothing: it seals the mirror — which proves, byte
// for byte, that the directory is what was replayed — has the mirror
// become the follower manager's journal, and durably advances the
// fencing epoch so the deposed primary's journal vetoes any commit it
// might still attempt.
package replica

import (
	"context"
	"errors"
	"fmt"
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

// JournalFetcher follows a journal in the same process — the zero-copy
// seam tests and simulations use. Over HTTP the seam is
// httpapi.Client.WALTail.
func JournalFetcher(j *wal.Journal) Fetch { return j.Tail }

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
	// of the primary's current generation, ready for recovery.
	Dir string
	// Topo and Eps must match the primary's datacenter; meta frames are
	// checked against them before any record is applied.
	Topo *topology.Topology
	Eps  float64
	// Fetch pulls log chunks from the primary.
	Fetch Fetch
	// WALOpts are applied to the journal the mirror becomes at promotion.
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

	mu     sync.Mutex
	mgr    *core.Manager
	mirror *wal.Mirror // cfg.Dir: the primary's files, byte for byte; it keeps the cursor and the record count
	epoch  uint64      // highest epoch seen in the stream

	// The primary's durable frontier as of the last answered fetch,
	// recorded before the chunk is applied: a chunk that fails to apply
	// still says how far ahead the primary is.
	frontier     wal.Cursor
	frontRecords int

	// stopped is sticky: the stream held a record in a format this binary
	// does not know — the frames behind it are acknowledged writes the
	// standby cannot have — or the mirror faulted, and its directory is no
	// longer provably what the manager replayed. Either way the standby
	// neither follows nor promotes again, not even once the primary is
	// gone and the lag reads zero.
	stopped error

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
	// to replay, or a mirror that does not hold what was replayed — the
	// streams have diverged and following must stop.
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
	if cfg.PollWait <= 0 {
		cfg.PollWait = 5 * time.Second
	}
	mgr, err := core.NewManager(cfg.Topo, cfg.Eps)
	if err != nil {
		return nil, err
	}
	mirror, err := wal.OpenMirror(cfg.Dir, cfg.Topo, cfg.Eps, cfg.NoSync)
	if err != nil {
		return nil, err
	}
	return &Standby{cfg: cfg, mgr: mgr, mirror: mirror}, nil
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
	return s.mirror.Cursor()
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

// lagLocked measures the cursor against the frontier. A frontier in a
// generation the cursor has not reached (the reset onto it has not been
// applied, or failed) counts whole: nothing of that generation is here.
func (s *Standby) lagLocked() Lag {
	l := Lag{Records: s.frontRecords, Bytes: s.frontier.Off, Version: s.mgr.Version()}
	if cur := s.mirror.Cursor(); s.frontier.Gen == cur.Gen {
		l.Records -= s.mirror.Records()
		l.Bytes -= cur.Off
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
	if s.stopped != nil {
		s.mu.Unlock()
		return false, s.stopped
	}
	cur := s.mirror.Cursor()
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
	s.frontier, s.frontRecords = wal.Cursor{Gen: chunk.Gen, Off: chunk.Durable}, chunk.Records
	if err := s.applyChunkLocked(chunk); err != nil {
		if errors.Is(err, wal.ErrUnsupportedFormat) || errors.Is(err, wal.ErrMirror) {
			s.stopped = err
		}
		return false, err
	}
	s.raiseEpoch(chunk.Epoch)
	cur = s.mirror.Cursor()
	return cur.Gen == chunk.Gen && cur.Off >= chunk.Durable, nil
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

// applyChunkLocked hands one chunk to the mirror — verify, replay, store
// — which moves its cursor past it. A reset chunk restarts the stream
// from a snapshot base: the mirror returns a fresh follower manager, which
// replaces the old one only once the new base is on disk and recovers to
// it, so a failed reset keeps serving, and keeps mirrored, the last good
// state.
func (s *Standby) applyChunkLocked(chunk wal.TailChunk) error {
	if !chunk.Reset {
		if len(chunk.Data) == 0 {
			return nil // caught up; nothing to apply
		}
		if cur := s.mirror.Cursor(); chunk.Gen != cur.Gen || chunk.From != cur.Off {
			return fmt.Errorf("replica: continuation at %d/%d does not match cursor %d/%d",
				chunk.Gen, chunk.From, cur.Gen, cur.Off)
		}
	}
	mgr, err := s.mirror.Apply(s.mgr, chunk, s.raiseEpoch)
	if err != nil {
		return diverged(err)
	}
	if chunk.Reset {
		s.mgr = mgr
		if s.cfg.OnReset != nil {
			s.cfg.OnReset(mgr)
		}
	}
	return nil
}

// diverged puts the mirror's two verdicts that the streams have parted —
// a record the manager refused, a directory that is not what was
// replayed — under ErrDiverged.
func diverged(err error) error {
	if errors.Is(err, wal.ErrRefused) || errors.Is(err, wal.ErrMirror) {
		return fmt.Errorf("%w: %w", ErrDiverged, err)
	}
	return err
}

// raiseEpoch keeps the highest epoch the stream has shown: the epoch
// records in the log and the primary's own on every chunk.
func (s *Standby) raiseEpoch(epoch uint64) {
	if epoch > s.epoch {
		s.epoch = epoch
	}
}

// Promotion is the outcome of a successful Promote: the follower manager,
// now journaled by what was its mirror, fenced ahead of the old primary.
type Promotion struct {
	Mgr     *core.Manager
	Journal *wal.Journal
	Epoch   uint64 // the new fencing epoch this primary committed durably
	Lag     Lag    // lag at the moment of promotion (always zero bytes)
	Cost    Cost   // where the promotion's own time went
}

// Cost attributes one promotion, phase by phase: Drain (the catch-up
// fetches, one refused dial when the primary is dead), Verify (sealing the
// mirror and re-reading VerifiedBytes of snapshot and log against its
// checksums), Epoch (opening the log as the journal and the fsynced epoch
// record).
type Cost struct {
	Drain, Verify, Epoch time.Duration
	VerifiedBytes        int64
}

// maxDrainRounds bounds promotion's catch-up, one fetch a round.
const maxDrainRounds = 8

// Promote turns the standby into a primary. It drains what the primary
// can still serve (a dead one fails the first fetch), then refuses
// (ErrLagging) unless the follower has replayed everything the primary
// made durable. On success the mirror is sealed and proved, byte for
// byte, to be what the follower manager replayed (ErrDiverged if not;
// that recovering those bytes yields this manager's state was checked
// when the generation was mirrored, see wal.Mirror), the manager adopts
// it as its journal, and the fencing epoch is durably advanced past
// everything seen in the stream; the standby stops following. A failed
// promotion leaves a working standby: the mirror is reopened at the
// cursor, so the follow loop and a later Promote carry on.
func (s *Standby) Promote(ctx context.Context) (Promotion, error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	began := core.Now()
	for i := 0; i < maxDrainRounds; i++ {
		caught, err := s.syncOnce(ctx, 0)
		if fatalStream(err) {
			return Promotion{}, err
		}
		if err != nil || caught {
			break
		}
	}
	drained := core.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted || s.closed {
		return Promotion{}, ErrPromoted
	}
	if lag := s.lagLocked(); lag.Bytes > 0 {
		return Promotion{}, fmt.Errorf("%w: %d bytes (%d records) behind", ErrLagging, lag.Bytes, lag.Records)
	}

	var journal *wal.Journal
	verified, err := s.mirror.Seal(s.mgr)
	sealed := core.Now()
	if err == nil {
		journal, err = s.mirror.Adopt(s.mgr, s.epoch, s.cfg.WALOpts...)
	}
	if err != nil { // still a standby: following needs a mirror
		return Promotion{}, errors.Join(diverged(err), s.mirror.Reopen())
	}
	done := core.Now()
	s.promoted, s.epoch = true, journal.Epoch()
	return Promotion{Mgr: s.mgr, Journal: journal, Epoch: s.epoch, Lag: s.lagLocked(), Cost: Cost{
		Drain: drained.Sub(began), Verify: sealed.Sub(drained), Epoch: done.Sub(sealed), VerifiedBytes: verified,
	}}, nil
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
	return s.mirror.Close()
}
