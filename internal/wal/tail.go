package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// Cursor addresses a byte position in the replicated log stream: an
// offset into wal-<gen>.log. Offsets are always frame boundaries (the
// journal only makes whole frames durable), so a standby can resume
// from its last applied position without re-framing.
type Cursor struct {
	Gen uint64 `json:"gen"`
	Off int64  `json:"off"`
}

// TailChunk is one Tail response, and the JSON body of GET /v1/wal as it
// stands: Snap and Data are raw file bytes (base64 on the wire) whose CRCs
// the standby re-verifies before a byte is applied or mirrored.
//
// A continuation chunk (Reset false) carries Data = the log bytes
// [From, From+len(Data)) of generation Gen — whole frames, cut at a
// frame boundary. An empty continuation means the cursor is already at
// the durable frontier (the long-poll horizon expired with no new
// commits).
//
// A reset chunk (Reset true) means the cursor could not be resumed —
// the standby is new, the primary checkpointed past it, or the cursor
// was invalid — and restarts the stream: Snap is the full snapshot file
// image for Gen (absent for generation 1), and Data is the log from
// offset 0, starting with the magic and the meta frame. Appending these
// bytes verbatim gives the standby a byte-identical mirror of the
// primary's files.
type TailChunk struct {
	Gen     uint64 `json:"gen"`
	From    int64  `json:"from"`
	Durable int64  `json:"durable"` // the primary's durable frontier in Gen
	Records int    `json:"records"` // mutation records appended in Gen at the frontier
	Epoch   uint64 `json:"epoch"`   // the primary's fencing epoch
	Reset   bool   `json:"reset,omitempty"`
	Snap    []byte `json:"snap,omitempty"`
	Data    []byte `json:"data,omitempty"`
}

const (
	// defaultTailBytes caps one chunk; a fresh standby pages through a
	// large log in several requests.
	defaultTailBytes = 4 << 20
	// minTailBytes keeps a cap from cutting below a single frame.
	minTailBytes = 64 << 10
)

// Tail returns durable log bytes past cur, re-verified against their
// CRCs before they leave the process. When the cursor is at the durable
// frontier and wait is positive, the call long-polls until new bytes
// become durable, the generation or epoch advances, the journal closes,
// ctx is done, or wait expires — whichever comes first; the first three
// return data or a reset, the rest an empty continuation chunk.
//
// Tail ignores the journal's sticky error and fencing: a poisoned or
// deposed journal can no longer commit, but its durable prefix is
// exactly what a standby must still drain.
func (j *Journal) Tail(ctx context.Context, cur Cursor, maxBytes int, wait time.Duration) (TailChunk, error) {
	if maxBytes <= 0 || maxBytes > defaultTailBytes {
		maxBytes = defaultTailBytes
	}
	if maxBytes < minTailBytes {
		maxBytes = minTailBytes
	}
	var expire <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expire = t.C
	}
	for {
		j.mu.Lock()
		gen, durable, epoch, records := j.meta.Gen, j.durable, j.epoch, j.appended
		notify := j.tailers
		closed := j.f == nil
		j.mu.Unlock()

		caughtUp := cur.Gen == gen && cur.Off == durable
		if caughtUp && wait > 0 && !closed {
			select {
			case <-notify:
				continue
			case <-ctx.Done():
			case <-expire:
			}
			// Fall through and answer with whatever is durable now.
			j.mu.Lock()
			gen, durable, epoch, records = j.meta.Gen, j.durable, j.epoch, j.appended
			j.mu.Unlock()
			caughtUp = cur.Gen == gen && cur.Off == durable
		}
		if caughtUp {
			return TailChunk{Gen: gen, From: cur.Off, Durable: durable, Records: records, Epoch: epoch}, nil
		}

		// There is something to send. Hold writeMu so no rotation swaps
		// or deletes the files mid-read (flushes also hold it, but bytes
		// below durable are immutable, so blocking them only serializes
		// the read; long polls above never hold it).
		j.writeMu.Lock()
		j.mu.Lock()
		gen2, durable2, epoch2, records2 := j.meta.Gen, j.durable, j.epoch, j.appended
		j.mu.Unlock()
		chunk, err := j.buildChunk(cur, gen2, durable2, epoch2, records2, maxBytes)
		j.writeMu.Unlock()
		if err == nil {
			return chunk, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			// Rotation raced the first sample; re-sample and retry.
			continue
		}
		return TailChunk{}, err
	}
}

// buildChunk reads the response for a cursor known to be behind (or off)
// the durable frontier. Callers hold writeMu, so the generation files
// are stable.
func (j *Journal) buildChunk(cur Cursor, gen uint64, durable int64, epoch uint64, records, maxBytes int) (TailChunk, error) {
	if cur.Gen == gen && cur.Off > int64(magicLen) && cur.Off < durable {
		data, err := readRange(walPath(j.dir, gen), cur.Off, durable)
		if err != nil {
			return TailChunk{}, err
		}
		if len(data) > maxBytes {
			data = data[:maxBytes]
		}
		frames, clean, err := scanFramesAt(data, 0)
		if err != nil && len(frames) == 0 {
			// The cursor does not sit on a frame boundary (a client with
			// a fabricated offset): restart it from scratch.
			return j.resetChunk(gen, durable, epoch, records, maxBytes)
		}
		if clean == 0 {
			return TailChunk{}, fmt.Errorf("wal: tail at %d/%d: %w", cur.Gen, cur.Off, err)
		}
		return TailChunk{
			Gen: gen, From: cur.Off, Data: data[:clean],
			Durable: durable, Records: records, Epoch: epoch,
		}, nil
	}
	return j.resetChunk(gen, durable, epoch, records, maxBytes)
}

// resetChunk restarts a standby from the current generation's base: the
// snapshot image plus the log from offset 0.
func (j *Journal) resetChunk(gen uint64, durable int64, epoch uint64, records, maxBytes int) (TailChunk, error) {
	snap, err := readIfExists(snapPath(j.dir, gen))
	if err != nil {
		return TailChunk{}, fmt.Errorf("wal: tail snapshot: %w", err)
	} else if snap == nil && gen > 1 {
		// An orphaned rotation (crash between snapshot rename and
		// directory sync) has no shippable base until the next
		// checkpoint publishes one.
		return TailChunk{}, fmt.Errorf("wal: generation %d has no snapshot to bootstrap from; retry after a checkpoint", gen)
	}
	data, err := readRange(walPath(j.dir, gen), 0, durable)
	if err != nil {
		return TailChunk{}, err
	}
	if len(data) > maxBytes {
		// Cut on a frame boundary, never below the meta frame.
		_, clean, _ := scanFrames(data[:maxBytes], walMagic)
		if clean <= magicLen {
			return TailChunk{}, fmt.Errorf("wal: tail cap %d below one frame", maxBytes)
		}
		data = data[:clean]
	}
	return TailChunk{
		Gen: gen, From: 0, Data: data, Snap: snap,
		Durable: durable, Records: records, Epoch: epoch, Reset: true,
	}, nil
}

// readRange reads bytes [from, to) of one file.
func readRange(path string, from, to int64) ([]byte, error) {
	f, err := openRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, to-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, fmt.Errorf("wal: read log range [%d,%d): %w", from, to, err)
	}
	return buf, nil
}
