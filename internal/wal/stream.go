package wal

import "repro/internal/core"

// This file is what a reader of log bytes outside the package gets:
// ScanLog and DecodeRecord, for tools that walk a wal-<gen>.log image
// frame by frame (svcbench's probes, the chaos tests; the intent log and
// Inspect decode with it too). Recovery and a standby's Mirror (mirror.go)
// use neither: replay walks and decodes in place (recover.go).

// ScanLog verifies bytes that begin at offset 0 of a wal-<gen>.log
// image (magic, then frames; Frame[0] is the generation's meta record).
// It returns every intact frame, the clean length, and an error wrapping
// ErrCorrupt when the region does not end exactly on a frame boundary.
func ScanLog(data []byte) ([]Frame, int, error) {
	return scanFrames(data, walMagic)
}

// RecordKind classifies one log frame payload for replay.
type RecordKind int

const (
	// KindMutation is a journaled core.Mutation.
	KindMutation RecordKind = iota
	// KindEpoch is a fencing-epoch advance (journal metadata; carries no
	// manager state).
	KindEpoch
)

// Record is one decoded log frame.
type Record struct {
	Kind     RecordKind
	Mutation core.Mutation // valid when Kind == KindMutation
	Epoch    uint64        // valid when Kind == KindEpoch
}

// DecodeRecord parses a non-meta frame payload, binary or legacy JSON,
// into memory of the record's own. The error wraps ErrCorrupt for a
// malformed record and ErrUnsupportedFormat for one a newer version wrote.
func DecodeRecord(payload []byte) (Record, error) {
	return new(recordStore).decode(payload)
}
