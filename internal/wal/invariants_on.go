//go:build invariants

package wal

import (
	"bytes"
	"fmt"
)

// invariantsEnabled gates runtime assertions that are too hot for
// production builds. Enable with `go test -tags invariants`; the race
// storm tests run under this tag in scripts/check.sh.
const invariantsEnabled = true

// batchExtra records each staged payload in staging order so the flush
// can prove the batch buffer preserves it.
type batchExtra struct {
	staged [][]byte
}

func (b *groupBatch) noteStaged(payload []byte) {
	b.staged = append(b.staged, append([]byte(nil), payload...))
}

// assertOrder re-scans the sealed batch buffer and checks the frames
// come out exactly in staging order — the invariant that makes "staging
// order == log order == the manager's apply order" true, which replay
// depends on. Runs after the batch is detached, so the buffer is
// stable.
func (b *groupBatch) assertOrder() {
	img := append([]byte(walMagic), b.buf...)
	frames, _, err := scanFrames(img, walMagic)
	if err != nil {
		panic(fmt.Sprintf("invariant violated: sealed batch does not re-scan cleanly: %v", err))
	}
	if len(frames) != len(b.staged) {
		panic(fmt.Sprintf("invariant violated: batch has %d frames, staged %d", len(frames), len(b.staged)))
	}
	for i, fr := range frames {
		if !bytes.Equal(fr.Payload, b.staged[i]) {
			panic(fmt.Sprintf("invariant violated: frame %d differs from its staged payload (log order != staging order)", i))
		}
	}
}
