// Package lockcheck fixtures: positive and negative cases for the
// *Locked-under-mutex convention.
package lockcheck

import "sync"

type Manager struct {
	mu    sync.Mutex
	tabMu sync.Mutex
	n     int
}

func (m *Manager) commitLocked() { m.n++ }
func (m *Manager) statsLocked()  {}

// --- negative: straightforward Lock/defer Unlock ---

func (m *Manager) GoodDefer() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commitLocked()
}

// --- negative: lock state survives a branch that unlocks and returns ---

func (m *Manager) GoodBranch(fail bool) {
	m.mu.Lock()
	if fail {
		m.mu.Unlock()
		return
	}
	m.commitLocked()
	m.mu.Unlock()
}

// --- negative: any mutex rooted at the receiver satisfies the call ---

func (m *Manager) GoodOtherMutex() {
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	m.statsLocked()
}

// --- negative: a *Locked function may call other *Locked functions ---

func (m *Manager) chainLocked() {
	m.commitLocked()
}

// --- positive: a bare unlocked call (the "unlocked commitLocked" bug) ---

func (m *Manager) BadBare() {
	m.commitLocked() // want `call to commitLocked without holding a m\..* mutex`
}

// --- positive: lock released before the call ---

func (m *Manager) BadAfterUnlock() {
	m.mu.Lock()
	m.commitLocked()
	m.mu.Unlock()
	m.statsLocked() // want `call to statsLocked without holding`
}

// --- positive: holding an unrelated object's mutex does not help ---

func (m *Manager) BadWrongReceiver(other *Manager) {
	other.mu.Lock()
	defer other.mu.Unlock()
	m.commitLocked() // want `call to commitLocked without holding`
}

// --- positive: closures start with no locks held ---

func (m *Manager) BadClosure() func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	return func() {
		m.commitLocked() // want `call to commitLocked without holding`
	}
}

// --- positive: only one branch locks ---

func (m *Manager) BadHalfLock(lock bool) {
	if lock {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.commitLocked() // want `call to commitLocked without holding`
}
