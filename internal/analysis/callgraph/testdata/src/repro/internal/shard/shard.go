// Stand-in for repro/internal/shard: the one package allowed to call
// the CommitExternal seam and its plan half.
package shard

import "repro/internal/core"

func Admit(m *core.Manager) error {
	return m.CommitExternal(core.Mutation{})
}

// Plan calls the plan half: allowed here too.
func Plan(m *core.Manager) error {
	if _, err := m.PlanHetero(2); err != nil {
		return err
	}
	_, err := m.PlanHomog(1)
	return err
}
