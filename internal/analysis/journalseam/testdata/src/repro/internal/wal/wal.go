// Package wal exercises the other side of the Manager.Replay rule: the
// one package outside core that may call it.
package wal

import "repro/internal/core"

// --- negative: the replay loop recovery and the standby's mirror share ---

func replay(m *core.Manager, muts []*core.Mutation) error {
	for _, mut := range muts {
		if err := m.Replay(mut); err != nil {
			return err
		}
	}
	return nil
}
