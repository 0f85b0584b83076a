//go:build !invariants

package core

// invariantsEnabled gates runtime assertions that are too hot for
// production builds; see invariants_on.go.
const invariantsEnabled = false

func (m *Manager) assertCommitLocked(mut *Mutation, now, old []Contribution) {}
