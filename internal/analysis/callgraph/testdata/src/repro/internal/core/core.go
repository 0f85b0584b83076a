// Stand-in for repro/internal/core: just enough surface for the engine
// tests — a seam method, a sibling caller, and an interface for the
// dynamic-dispatch over-approximation.
package core

type Mutation struct{}

type Manager struct{}

// Replay is the seam the wal stand-in and the consumer call.
func (m *Manager) Replay(mut *Mutation) error { return nil }

// Allocate calls the seam from inside the declaring package.
func (m *Manager) Allocate(n int) error {
	return m.Replay(&Mutation{})
}

// Replayer abstracts the seam; calls through it resolve dynamically.
type Replayer interface {
	Replay(*Mutation) error
}
