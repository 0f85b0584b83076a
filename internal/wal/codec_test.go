package wal

import (
	"encoding/json"

	"repro/internal/core"
)

// legacyEncodeMutation is the JSON record encoder as it was before
// format 1, kept in tests only: it generates the legacy input of the
// legacy-reader tests — the "before" side of the round-trip equivalence
// and mixed-format tests.
func legacyEncodeMutation(mut core.Mutation) ([]byte, error) {
	return json.Marshal(recordOf(Record{Kind: KindMutation, Mutation: mut}))
}
