// Stand-in for repro/internal/core: just enough surface for the engine
// tests — restricted methods, a sibling caller, and an interface for
// the dynamic-dispatch over-approximation.
package core

type Mutation struct{}

type Manager struct{}

// CommitExternal is the restricted seam (DefaultRestrictions allows
// only repro/internal/shard and the declaring package).
func (m *Manager) CommitExternal(mut Mutation) error { return nil }

// PlanHomog and PlanHetero are the seam's plan half, restricted alike.
func (m *Manager) PlanHomog(n int) (Mutation, error)  { return Mutation{}, nil }
func (m *Manager) PlanHetero(n int) (Mutation, error) { return Mutation{}, nil }

// Allocate calls the seam from inside the declaring package: allowed.
func (m *Manager) Allocate(n int) error {
	return m.CommitExternal(Mutation{})
}

// Committer abstracts the seam; calls through it resolve dynamically.
type Committer interface {
	CommitExternal(Mutation) error
}
