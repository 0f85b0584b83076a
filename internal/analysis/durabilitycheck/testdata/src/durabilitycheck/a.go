// Fixture for durabilitycheck: 2xx acks must be dominated by the
// journal commit-wait.
package durabilitycheck

type W struct{}

func (W) WriteHeader(code int) {}

type Manager struct{}

func (*Manager) AllocateHomog(n int) error { return nil }
func (*Manager) Status() int               { return 0 }

func writeJSON(w W, code int, v interface{}) {}

// ackFirst acknowledges before the commit-wait has run.
func ackFirst(w W, m *Manager) {
	writeJSON(w, 201, nil) // want `2xx acknowledged without a preceding journal commit-wait`
	m.AllocateHomog(1)
}

// branchSkips commits on only one branch; the join poisons the ack.
func branchSkips(w W, m *Manager, ok bool) {
	if ok {
		if err := m.AllocateHomog(1); err != nil {
			return
		}
	}
	w.WriteHeader(204) // want `2xx acknowledged without a preceding journal commit-wait`
}

// dominated acks only after the commit-wait returned: clean.
func dominated(w W, m *Manager) {
	if err := m.AllocateHomog(1); err != nil {
		writeJSON(w, 500, nil)
		return
	}
	writeJSON(w, 201, nil)
}

// readOnly never mutates, so its 200 is out of scope: clean.
func readOnly(w W, m *Manager) {
	writeJSON(w, 200, m.Status())
}

// dryRun acks without journaling behind a written justification.
func dryRun(w W, m *Manager, dry bool) {
	if dry {
		//lint:ignore durabilitycheck dry-run probes plan feasibility and never mutates state
		writeJSON(w, 200, nil)
		return
	}
	if err := m.AllocateHomog(1); err != nil {
		writeJSON(w, 500, nil)
		return
	}
	writeJSON(w, 201, nil)
}
