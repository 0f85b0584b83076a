// Package wal gives the network manager crash durability: a write-ahead
// log of every state-changing mutation, periodic snapshots with log
// compaction, and a Recover entry point that rebuilds a bit-identical
// manager from what survived on disk.
//
// On-disk layout (all files live in one state directory):
//
//	wal-<gen>.log    magic "SVCWAL1\n", then frames: first a meta record
//	                 identifying the generation and datacenter, then one
//	                 record per committed mutation, in commit order
//	snap-<gen>.snap  magic "SVCSNP1\n", then two frames: the meta record
//	                 and the full ManagerState at the moment wal-<gen>.log
//	                 was created
//
// Each frame is [4-byte little-endian length][4-byte CRC32-Castagnoli of
// the payload][payload]. A torn or bit-flipped tail fails its CRC and
// replay stops at the last intact record; recovery truncates the file
// there so the next append continues from a clean point.
//
// One payload is JSON: the ~60-byte meta record that opens either file,
// decoded once per file. Every other payload — a log record, a snapshot
// body — starts with a format tag byte and is binary:
//
//	tag      0x01 = format 1, below. '{' = a legacy JSON payload, written
//	         before format 1 and still read, so old directories recover
//	         and continue in place. Anything else was written by a newer
//	         version: ErrUnsupportedFormat, and the file is left alone.
//
// A log record (record.go is the one file that knows the layout):
//
//	op       1 alloc  2 release  3 fail_machine  4 restore_machine
//	         5 fail_link  6 restore_link  7 set_offline  8 repair
//	         0x40 epoch marker — followed only by: uvarint epoch
//	flags    bit 0 homog  1 hetero  2 placement  3 contribs  4 offline
//	         5 eps  6 idempotency key; bit 7 clear
//	outcome  0, or for op repair 1 noop  2 moved  3 degraded  4 failed
//	varint   job, node, link (zigzag, like every signed integer below)
//	[homog]      varint N, f64 mu, f64 sigma
//	[hetero]     uvarint n, n x (f64 mu, f64 sigma)
//	[placement]  uvarint n, n x (varint machine, varint count,
//	             uvarint v, v x varint VM index)   v = 0 when homogeneous
//	[contribs]   uvarint n, n x (varint link, byte det, f64 mu, f64 sigma)
//	[eps]        f64, non-zero
//	[key]        uvarint n, n bytes
//
// A bracketed section is present only when its flag is set, and is then
// never empty, so the encoder writes each mutation one way only and empty
// slices decode to nil — the canonical form exported states are compared in. An
// f64 is the raw little-endian IEEE-754 bits, bit-exact by construction;
// NaN and ±Inf are refused by the encoder (the commit is vetoed) and by
// the decoder. Every length is checked against the bytes that remain
// before it sizes an allocation. intents.log frames wrap the same
// mutation record in an envelope of their own (intent.go).
//
// A snapshot body (snapshot.go; legacy: {"state":{...}}) holds the whole
// state; an entry is a [placement] element, a contribution a [contribs] one:
//
//	varint   next job id
//	links    uvarint n, n x (f64 det, sum_mu, sum_var; varint stochastic)
//	used     uvarint n, n x varint
//	jobs     uvarint n, n x (varint id, byte flags: bit 0 homog, 1 hetero,
//	         2 degraded eps; [homog]; [hetero]; uvarint n, n x entry;
//	         uvarint n, n x contribution; [f64 eps]), ascending by id
//	down     uvarint n, n x varint machines; uvarint n, n x varint links
//	counters 8 x uvarint, in CounterState's field order
//	bindings uvarint n, n x (uvarint k, k key bytes, byte op, varint job,
//	         uvarint n, n x entry), ascending by key and refused in any
//	         other order: equal states give equal bytes
//
// Who writes which file, through which helper (dir.go has them all, and
// nothing outside this package touches a file in a state directory):
//
//	journal     wal-<gen>.log   created by Recover (fresh or snapshot-only
//	                            directory) and Checkpoint: createWAL =
//	                            writeDurably + openLog; extended by commits
//	                            and AdvanceEpoch: append to the open file,
//	                            sync; cut at a torn tail by Recover: openLog
//	checkpoint  snap-<gen>.snap Journal.Checkpoint: writeDurably
//	mirror      both            Mirror.Apply, reset chunk: writeDurably for
//	                            each, then openLog; continuation chunk:
//	                            append, sync. Seal: sync, close, then read
//	                            both against the mirror's own length and
//	                            CRC32-C of what it wrote (writes nothing);
//	                            Reopen after a failed promotion: openLog
//	adopt       wal-<gen>.log   Mirror.Adopt at promotion: the sealed mirror's
//	                            log becomes the journal's — openLog at the
//	                            mirrored length (Journal.open, shared with
//	                            Recover), then AdvanceEpoch: append, sync
//	router      intents.log     OpenIntentLog: writeDurably + openLog, then
//	                            IntentLog.Append: append, sync
//
// writeDurably writes <name>.tmp, fsyncs, renames it into place (atomic on
// POSIX) and fsyncs the directory, so a file is either absent, as it was,
// or complete. A checkpoint and a mirror reset both publish the new
// generation that way — snapshot first, then log — and only then delete
// the others (removeStale): every crash point in that sequence leaves
// either the old generation intact or the new one complete. A failure
// the process survives must too, though the old log may go on taking
// records: what was published is taken back, log first, and a checkpoint
// that cannot poisons its journal (a mirror: see Mirror.reset). scanDir
// sweeps leftover .tmp files at the next Recover.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	walMagic  = "SVCWAL1\n"
	snapMagic = "SVCSNP1\n"
	magicLen  = 8
	headerLen = 8 // 4-byte length + 4-byte CRC

	// maxRecord bounds one frame's payload; any real record is far
	// smaller, and the cap keeps a corrupt length field from driving a
	// giant allocation.
	maxRecord = 16 << 20
)

// ErrCorrupt marks a frame that failed structural or checksum validation.
var ErrCorrupt = errors.New("wal: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed payload to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(beginFrame(buf), payload...)
	endFrame(buf, start)
	return buf
}

// beginFrame reserves a frame header at the end of buf. The caller
// appends the payload straight after it — no intermediate copy — and
// then calls endFrame with the length buf had before beginFrame.
func beginFrame(buf []byte) []byte {
	return append(buf, make([]byte, headerLen)...)
}

// endFrame back-patches the header reserved at start with the length and
// checksum of everything appended since.
func endFrame(buf []byte, start int) {
	payload := buf[start+headerLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// Frame is one intact frame: its payload and the byte offset just past
// it within the scanned region.
type Frame struct {
	Payload []byte
	End     int
}

// nextFrame is the frame walker: it checks the frame at off (a frame
// boundary) — header, length bound, CRC32-C — and returns its payload, in
// place, and the offset past it; on error (ErrCorrupt) next is off.
func nextFrame(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < headerLen {
		return nil, off, fmt.Errorf("%w: torn header at offset %d", ErrCorrupt, off)
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n <= 0 || n > maxRecord {
		return nil, off, fmt.Errorf("%w: bad length %d at offset %d", ErrCorrupt, n, off)
	}
	if len(data)-off-headerLen < n {
		return nil, off, fmt.Errorf("%w: torn payload at offset %d", ErrCorrupt, off)
	}
	payload = data[off+headerLen : off+headerLen+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
	}
	return payload, off + headerLen + n, nil
}

// metaFrame checks the magic and walks the first frame, the meta record;
// next is 0 only for a bad magic.
func metaFrame(data []byte, magic string) (payload []byte, next int, err error) {
	if len(data) < magicLen || string(data[:magicLen]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return nextFrame(data, magicLen)
}

// scanFrames walks a log or snapshot image, returning every intact frame
// in order and the clean length of the file (the offset just past the
// last intact frame). err is nil when the file ends exactly on a frame
// boundary, and wraps ErrCorrupt when a torn or corrupt tail was found —
// the frames before it are still returned.
func scanFrames(data []byte, magic string) (frames []Frame, clean int, err error) {
	if _, clean, err = metaFrame(data, magic); clean == 0 {
		return nil, 0, err
	}
	return scanFramesAt(data, magicLen)
}

// scanFramesAt collects the walk from off, which must be a frame boundary.
func scanFramesAt(data []byte, off int) (frames []Frame, clean int, err error) {
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			return frames, off, err
		}
		frames = append(frames, Frame{Payload: payload, End: next})
		off = next
	}
	return frames, off, nil
}
