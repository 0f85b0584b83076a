// A package outside the allow-list: its direct seam calls are the
// cross-package violations; its admission-API call is clean.
package consumer

import "repro/internal/core"

// Sneak bypasses the admission API: restricted.
func Sneak(m *core.Manager) error {
	return m.CommitExternal(core.Mutation{})
}

// Fine goes through the admission API: clean.
func Fine(m *core.Manager) error {
	return m.Allocate(1)
}

// Indirect calls the seam through the interface: the engine resolves it
// as a dynamic edge to every CommitExternal method in the program.
func Indirect(c core.Committer) error {
	return c.CommitExternal(core.Mutation{})
}

// Peek plans outside the router, where nothing holds the manager between
// the plan and a commit: restricted, for either kind of request.
func Peek(m *core.Manager) error {
	if _, err := m.PlanHomog(1); err != nil {
		return err
	}
	_, err := m.PlanHetero(1)
	return err
}
