// Stand-in for repro/internal/wal: the one package allowed to call the
// Replay seam.
package wal

import "repro/internal/core"

func Recover(m *core.Manager) error {
	return m.Replay(&core.Mutation{})
}
