package lockcheck

// --- negative: a call-site escape hatch ---

func (m *Manager) DispatchUnderCallerLock() {
	//lint:ignore lockcheck caller guarantees m.mu per the Journal contract
	m.commitLocked()
}

// --- positive: an escape hatch for another analyzer covers nothing here ---

func (m *Manager) DispatchWrongHatch() {
	//lint:ignore lockorder caller guarantees m.mu per the Journal contract
	m.commitLocked() // want `call to commitLocked without holding a m.\* mutex`
}
