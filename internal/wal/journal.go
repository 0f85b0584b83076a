package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// defaultSnapshotEvery is how many mutation records accumulate in the
// current log before NeedsCheckpoint starts reporting true.
const defaultSnapshotEvery = 4096

// ErrFenced marks a journal whose commits are vetoed because a
// higher-epoch primary exists: a standby was promoted, and this deposed
// primary's writes must not diverge from the new timeline. The journal
// keeps serving reads and Tail so the promoted side can drain it.
var ErrFenced = errors.New("wal: journal fenced by a newer epoch")

// maxBatchYields bounds how many scheduling rounds a batch leader grants
// concurrent committers to join its batch before sealing it (see
// flushBatch). The loop also stops the first round the batch does not
// grow, so this cap only matters under sustained arrivals.
const maxBatchYields = 8

// meta identifies a log generation and the datacenter it journals, so
// recovery refuses a state directory that belongs to a different topology
// or risk factor instead of replaying nonsense into it.
type meta struct {
	Gen   uint64  `json:"gen"`
	Eps   float64 `json:"eps"`
	Nodes int     `json:"nodes"`
	Slots int     `json:"slots"`
}

// check holds a file's meta payload against the datacenter and generation
// the caller expects; what names the file kind in the error.
func (want meta) check(payload []byte, what string) error {
	var got meta
	if err := json.Unmarshal(payload, &got); err != nil {
		return fmt.Errorf("wal: %s meta: %w", what, err)
	}
	if got != want {
		return fmt.Errorf("wal: %s meta %+v does not match datacenter %+v", what, got, want)
	}
	return nil
}

// Journal is a crash-durable core.Journal backed by the generation files
// described in the package comment. Staging methods (Commit, StageCommit,
// Checkpoint) are invoked with the manager's write lock held (see
// core.Journal), so frames enter the log in exactly the mutation order;
// the write+fsync itself is group-committed — concurrent waiters share one
// flush — and runs outside that lock for staged commits.
type Journal struct {
	stateDir
	mu            sync.Mutex
	f             *os.File
	meta          meta
	appended      int // mutation records in the current log
	failedAt      int // appended at the last failed checkpoint, 0 after a success
	snapshotEvery int
	err           error // sticky: first append failure poisons the journal

	// Replication state (guarded by mu). epoch is the fencing epoch this
	// journal commits under (1 when no epoch record exists — every
	// pre-replication log). fenced, when nonzero, is a higher epoch that
	// has vetoed this journal: a promoted standby took over and this
	// deposed primary must not commit again. durable is the byte offset
	// of the current log file up to which frames are flushed (and synced,
	// unless noSync) — always a frame boundary, the frontier Tail serves.
	// tailers is closed and replaced whenever durable, the generation, or
	// the epoch advances, waking long-polling Tail calls.
	epoch   uint64
	fenced  uint64
	durable int64
	tailers chan struct{}

	// Group commit: frames staged since the last flush accumulate in batch
	// (guarded by mu); writeMu serializes the flushes themselves so batches
	// reach the file in creation order. batchSizes records one observation
	// per flushed batch (guarded by mu).
	writeMu    sync.Mutex
	batch      *groupBatch
	batchSizes metrics.IntSummary
}

// groupBatch is one group-commit unit: the concatenated frames of every
// commit staged since the previous flush. The first waiter claims led and
// becomes the leader: it alone performs one write+fsync for all of them.
// The rest block on done and never touch writeMu — a follower queued on a
// mutex would sit through the NEXT batch's entire flush before it could
// start its next mutation, halving the achievable batch size.
type groupBatch struct {
	buf  []byte
	n    int
	led  bool
	done chan struct{}
	err  error // set before done is closed

	batchExtra // per-frame staging record, only under -tags invariants
}

// GroupCommitStats reports the journal's group-commit behavior: how many
// flushes happened and how many records each one made durable. With only
// synchronous committers every batch has size 1; sizes above 1 measure how
// many fsyncs the batching actually saved.
type GroupCommitStats struct {
	Batches   int64   `json:"batches"`
	Records   int64   `json:"records"`
	MaxBatch  int64   `json:"maxBatch"`
	MeanBatch float64 `json:"meanBatch"`
}

// GroupCommitStats returns a snapshot of the batch counters.
func (j *Journal) GroupCommitStats() GroupCommitStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return GroupCommitStats{
		Batches:   j.batchSizes.Count,
		Records:   j.batchSizes.Sum,
		MaxBatch:  j.batchSizes.Max,
		MeanBatch: j.batchSizes.Mean(),
	}
}

// Option configures a Journal.
type Option func(*Journal)

// WithNoSync disables the fsync after every commit (and after checkpoint
// file writes). Appends still reach the OS on every commit, but a power
// failure can lose the tail. Intended for tests and benchmarks.
func WithNoSync() Option {
	return func(j *Journal) { j.noSync = true }
}

// WithSnapshotEvery sets how many records accumulate before
// NeedsCheckpoint reports true (default 4096).
func WithSnapshotEvery(n int) Option {
	return func(j *Journal) {
		if n > 0 {
			j.snapshotEvery = n
		}
	}
}

// Commit appends one mutation record, durably unless WithNoSync. An
// append failure poisons the journal: every later Commit fails too, so
// the manager stops accepting mutations instead of diverging from disk.
// The torn bytes, if any, are discarded by the next recovery's
// truncation. Commit is StageCommit plus the durability wait; callers
// that can release their lock before waiting should use StageCommit so
// concurrent commits share one write+fsync.
func (j *Journal) Commit(mut core.Mutation) error {
	wait, err := j.StageCommit(mut)
	if err != nil {
		return err
	}
	return wait()
}

// StageCommit implements core.AsyncJournal: it encodes the mutation as
// one frame at the end of the open group-commit batch, reserving the
// record's position in the log's total order (staging order == the
// manager's apply order, because staging happens under the manager's
// write lock). The returned wait function blocks until the frame is
// durable and returns the batch's outcome: the first waiter claims the
// batch's leadership and performs a single write+fsync for every frame
// staged so far; every later waiter parks on the batch's done channel
// (never on a mutex queue, where it would sit out the next batch's
// flush too — see groupBatch). A failed flush poisons the journal
// exactly like a failed Commit.
func (j *Journal) StageCommit(mut core.Mutation) (func() error, error) {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return nil, err
	}
	if j.fenced != 0 {
		err := fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
		j.mu.Unlock()
		return nil, err
	}
	// Encode straight into the open batch's buffer; a mutation the codec
	// refuses leaves the buffer as it was and opens no batch.
	b := j.batch
	var buf []byte
	if b != nil {
		buf = b.buf
	}
	start := len(buf)
	buf, err := appendMutation(beginFrame(buf), mut)
	if err != nil {
		j.mu.Unlock()
		return nil, err
	}
	endFrame(buf, start)
	if b == nil {
		b = &groupBatch{done: make(chan struct{})}
		j.batch = b
	}
	b.buf = buf
	b.noteStaged(buf[start+headerLen:])
	b.n++
	j.appended++
	j.mu.Unlock()
	return func() error {
		j.mu.Lock()
		lead := !b.led
		b.led = true
		j.mu.Unlock()
		if lead {
			j.flushBatch(b)
		}
		<-b.done
		return b.err
	}, nil
}

// flushBatch makes batch b durable if no other leader has already done
// so. writeMu gives batches the file in creation order: a new batch can
// only open after its predecessor was detached (below, under writeMu),
// so the predecessor's write always precedes it.
func (j *Journal) flushBatch(b *groupBatch) {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	select {
	case <-b.done:
		return // an earlier leader flushed it
	default:
	}
	// Nobody else can seal b now (flushBatch runs only in b's claimed
	// leader, or in flushOpen callers holding the manager's write lock).
	// Before sealing, yield while the batch is still growing: committers
	// released by the previous flush are runnable right now, mid-plan, and
	// a yield runs every one of them until it either stages into b and
	// parks on b.done or blocks elsewhere. Sealing on first arrival
	// instead degenerates to singleton batches (the classic group-commit
	// pacing failure). A yield costs microseconds and burns no timer —
	// timer-based windows stall for a millisecond whenever the machine
	// goes idle — so an uncontended commit pays one no-op round.
	j.mu.Lock()
	n := b.n
	j.mu.Unlock()
	for i := 0; i < maxBatchYields; i++ {
		runtime.Gosched()
		j.mu.Lock()
		grown := b.n > n
		n = b.n
		j.mu.Unlock()
		if !grown {
			break
		}
	}
	j.mu.Lock()
	if j.batch == b {
		j.batch = nil // detach: no more frames may join
	}
	err := j.err
	f := j.f
	j.batchSizes.Observe(int64(b.n))
	j.mu.Unlock()

	b.assertOrder()
	switch {
	case err != nil:
		// A previous batch poisoned the journal; do not write over the
		// hole it left.
	case f == nil:
		err = errors.New("wal: journal closed")
	default:
		if _, werr := f.Write(b.buf); werr != nil {
			err = fmt.Errorf("wal: append: %w", werr)
		} else {
			err = j.sync(f)
		}
	}
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	} else if len(b.buf) > 0 {
		// The batch's frames are flushed (and synced, unless noSync):
		// advance the durable frontier and wake long-polling tailers.
		j.mu.Lock()
		j.durable += int64(len(b.buf))
		j.notifyTailLocked()
		j.mu.Unlock()
	}
	b.err = err
	close(b.done)
}

// notifyTailLocked wakes every Tail call blocked on new durable bytes.
// Callers hold j.mu.
func (j *Journal) notifyTailLocked() {
	close(j.tailers)
	j.tailers = make(chan struct{})
}

// flushOpen flushes the open batch, if any. Callers that are about to
// rotate or close the log file use it to drain staged frames into the
// outgoing file first; no new frames can be staged concurrently because
// staging requires the manager's write lock, which those callers hold.
func (j *Journal) flushOpen() {
	j.mu.Lock()
	b := j.batch
	j.mu.Unlock()
	if b != nil {
		j.flushBatch(b)
	}
}

// Checkpoint writes a snapshot of the state, starts the next log
// generation, and deletes the superseded files. On failure the current
// generation keeps working (a checkpoint is an optimization) and
// NeedsCheckpoint waits for snapshotEvery more records.
func (j *Journal) Checkpoint(st *core.ManagerState) (err error) {
	// Drain staged frames into the outgoing generation and keep writeMu so
	// no in-flight flush can interleave with the file swap. Checkpoint runs
	// under the manager's write lock, so nothing stages concurrently.
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() {
		if err != nil {
			j.failedAt = j.appended
		}
	}()
	if j.err != nil {
		return j.err
	}
	if j.fenced != 0 {
		return fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
	}
	next := j.meta
	next.Gen++

	buf, err := encodeSnapshot(next, st)
	if err != nil {
		return err
	}

	if err := j.writeDurably(snapPath(j.dir, next.Gen), buf); err != nil {
		return err
	}
	nf, size, err := j.createWAL(next, j.epoch)
	if err != nil {
		// Recovery would take the published snapshot as the state and delete
		// the old log, which goes on taking records: take the generation
		// back, log first, or poison the journal if a file will not go.
		for _, path := range []string{walPath(j.dir, next.Gen), snapPath(j.dir, next.Gen)} {
			if rerr := remove(path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && j.err == nil {
				j.err = fmt.Errorf("wal: take back generation %d: %w", next.Gen, rerr)
			}
		}
		j.syncDir()
		return err
	}
	old := j.f
	j.f = nf
	j.meta = next
	j.appended, j.failedAt = 0, 0
	j.durable = size
	j.notifyTailLocked()
	old.Close()
	// Remove every superseded generation, not just the immediate
	// predecessor: an orphaned rotation (recovered around a missing
	// snapshot) can leave two generations on disk, and this checkpoint's
	// snapshot supersedes them all.
	removeStale(j.dir, next.Gen)
	j.syncDir()
	return nil
}

// NeedsCheckpoint reports whether snapshotEvery records accumulated in
// the current generation, and since its last failed checkpoint.
func (j *Journal) NeedsCheckpoint() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended-j.failedAt >= j.snapshotEvery
}

// Appended returns the number of mutation records in the current
// generation's log.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Gen returns the current log generation.
func (j *Journal) Gen() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta.Gen
}

// Dir returns the state directory.
func (j *Journal) Dir() string { return j.dir }

// Epoch returns the fencing epoch this journal commits under.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Fence vetoes every future commit and checkpoint: a standby was
// promoted at a higher epoch, and this deposed primary must not extend
// its timeline. The journal stays readable — Tail keeps serving so the
// promoted side can drain any durable records it has not streamed yet.
// Fencing at or below the journal's own epoch is refused (a stale fence
// from an even older primary must not stop the current one); re-fencing
// at the same or a higher superseding epoch is idempotent.
func (j *Journal) Fence(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if epoch <= j.epoch {
		return fmt.Errorf("wal: fence epoch %d not above current epoch %d", epoch, j.epoch)
	}
	if epoch > j.fenced {
		j.fenced = epoch
	}
	return nil
}

// AdvanceEpoch durably appends an epoch record and raises the journal's
// epoch. Promotion calls it on the recovered standby's journal before
// the first new commit, so the log itself records where the new
// primary's timeline begins — a later recovery (or a follower of the
// new primary) learns the epoch from the bytes, not from config.
func (j *Journal) AdvanceEpoch(to uint64) error {
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.fenced != 0 {
		err := fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
		j.mu.Unlock()
		return err
	}
	if to <= j.epoch {
		err := fmt.Errorf("wal: epoch %d not above current epoch %d", to, j.epoch)
		j.mu.Unlock()
		return err
	}
	f := j.f
	j.mu.Unlock()

	buf := appendEpochFrame(nil, to)
	_, err := f.Write(buf)
	if err != nil {
		err = fmt.Errorf("wal: append epoch: %w", err)
	} else {
		err = j.sync(f)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return err
	}
	j.epoch = to
	j.durable += int64(len(buf))
	j.notifyTailLocked()
	return nil
}

// DurableCursor returns the current durable frontier: the position a
// standby is fully caught up at.
func (j *Journal) DurableCursor() Cursor {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Cursor{Gen: j.meta.Gen, Off: j.durable}
}

// Close flushes and closes the log file. The journal must not be used
// afterwards; detach it from the manager first.
func (j *Journal) Close() error {
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.sync(j.f)
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if j.err == nil {
		j.err = errors.New("wal: journal closed")
	}
	j.notifyTailLocked() // long-polling tailers must observe the close
	return err
}
