package wal

import (
	"encoding/json"

	"repro/internal/core"
)

// The chaos, tail and fuzz suites predate format 1 and speak in terms of
// the three helpers below; they are kept, as thin shims over the one
// codec, so those suites run unmodified against the new encoding.

func encodeMutation(mut core.Mutation) ([]byte, error) {
	return appendMutation(nil, mut)
}

func decodeMutation(payload []byte) (core.Mutation, error) {
	rec, err := decodeRecord(payload)
	if err != nil {
		return core.Mutation{}, err
	}
	if rec.Kind != KindMutation {
		return core.Mutation{}, ErrCorrupt
	}
	return rec.Mutation, nil
}

func decodeEpochRecord(payload []byte) (uint64, bool) {
	rec, err := decodeRecord(payload)
	return rec.Epoch, err == nil && rec.Kind == KindEpoch
}

// legacyEncodeMutation is the JSON record encoder as it was before
// format 1, kept in tests only: it writes the "before" side of the
// round-trip equivalence and mixed-format tests.
func legacyEncodeMutation(mut core.Mutation) ([]byte, error) {
	return json.Marshal(recordOf(Record{Kind: KindMutation, Mutation: mut}))
}
