package wal

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestFencedErrorPenetratesBatchWrap pins the error chain through the
// staged admission path: when a fenced journal vetoes a record staged
// into its group-commit batch, the core.ErrJournal wrapper must keep
// the wal.ErrFenced sentinel reachable via errors.Is (the wrap uses %w,
// not %v). Routers and failover logic key off ErrFenced to tell a
// deposed primary apart from an ordinary planner rejection.
func TestFencedErrorPenetratesBatchWrap(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()

	if err := j.Fence(2); err != nil {
		t.Fatalf("fence: %v", err)
	}

	if _, err := m.AllocateHomog(homog(1, 2, 1)); !errors.Is(err, core.ErrJournal) || !errors.Is(err, ErrFenced) {
		t.Fatalf("allocate error %v must unwrap to both core.ErrJournal and wal.ErrFenced", err)
	}
}
