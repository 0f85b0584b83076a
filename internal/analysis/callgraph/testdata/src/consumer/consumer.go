// A package outside the allow-list: its direct seam call is the
// cross-package violation; its admission-API call is clean.
package consumer

import "repro/internal/core"

// Sneak applies a record outside the replay loop: restricted.
func Sneak(m *core.Manager) error {
	return m.Replay(&core.Mutation{})
}

// Fine goes through the admission API: clean.
func Fine(m *core.Manager) error {
	return m.Allocate(1)
}

// Indirect calls the seam through the interface: the engine resolves it
// as a dynamic edge to every Replay method in the program.
func Indirect(r core.Replayer) error {
	return r.Replay(&core.Mutation{})
}
