// A package outside core and wal: a direct seam call, an admission-API
// call, and a call through an interface.
package consumer

import "repro/internal/core"

// Sneak applies a record outside the replay loop: a static edge.
func Sneak(m *core.Manager) error {
	return m.Replay(&core.Mutation{})
}

// Fine goes through the admission API.
func Fine(m *core.Manager) error {
	return m.Allocate(1)
}

// Indirect calls the seam through the interface: the engine resolves it
// as a dynamic edge to every Replay method in the program.
func Indirect(r core.Replayer) error {
	return r.Replay(&core.Mutation{})
}
