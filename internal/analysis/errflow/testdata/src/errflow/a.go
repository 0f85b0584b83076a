// Fixture for errflow: discarded durability errors and %v-flattened
// error chains.
package errflow

import (
	"errors"
	"fmt"
	"os"
)

var ErrBad = errors.New("bad")

type Journal struct{}

func (*Journal) Commit(n int) error                      { return nil }
func (*Journal) StageCommit(n int) (func() error, error) { return nil, nil }

// drop throws the commit error away as a bare statement.
func drop(j *Journal) {
	j.Commit(1) // want `error from Commit discarded`
}

// blank swallows the stage error behind the blank identifier.
func blank(j *Journal) {
	wait, _ := j.StageCommit(1) // want `error from StageCommit discarded`
	_ = wait
}

// background launches the commit where nobody can see it fail.
func background(j *Journal) {
	go j.Commit(1) // want `error from Commit discarded`
}

// fsync drops the one error that matters for durability.
func fsync(f *os.File) {
	_ = f.Sync() // want `error from Sync discarded`
}

// flatten stringifies the inner chain: errors.Is(err, ErrBad) on the
// result no longer sees sentinels inside err.
func flatten(err error) error {
	return fmt.Errorf("%w: %v", ErrBad, err) // want `error formatted with %v; use %w`
}

// checked handles the commit error: clean.
func checked(j *Journal) error {
	if err := j.Commit(1); err != nil {
		return err
	}
	return nil
}

// wrapped uses %w for both errors and %d for the int: clean.
func wrapped(err error, n int) error {
	return fmt.Errorf("%w: item %d: %w", ErrBad, n, err)
}

// stringArg formats a plain string with %v: clean, nothing to unwrap.
func stringArg(name string) error {
	return fmt.Errorf("no such tenant %v", name)
}

// justified discards behind a written justification.
func justified(j *Journal) {
	//lint:ignore errflow recovery replays the open intent; this commit is best-effort cleanup
	j.Commit(1)
}

// wrongHatch's directive names another analyzer, so it covers nothing here.
func wrongHatch(j *Journal) {
	//lint:ignore determinism recovery replays the open intent; this commit is best-effort cleanup
	j.Commit(1) // want `error from Commit discarded`
}
