// Package snapshotro fixtures: Clone completeness and read-only
// snapshot discipline.
package snapshotro

import "sync"

// --- Clone completeness ---

type Faults struct {
	topo   int
	down   map[int]bool
	epoch  uint64
	cached []bool
	aliveN int
}

// negative: every field handled (copies or reads both count).

func (f *Faults) Clone() *Faults {
	c := &Faults{topo: f.topo, epoch: f.epoch, aliveN: f.aliveN}
	c.down = make(map[int]bool, len(f.down))
	for k, v := range f.down {
		c.down[k] = v
	}
	c.cached = append([]bool(nil), f.cached...)
	return c
}

type Broken struct {
	topo   int
	down   map[int]bool
	cached []bool
	aliveN int
}

// positive: the PR-4 bug class — Clone silently drops the warm caches,
// so every user of the copy pays a full rebuild (or worse, aliases).

func (b *Broken) Clone() *Broken { // want `Clone of Broken does not copy field "cached"` `Clone of Broken does not copy field "aliveN"`
	c := &Broken{topo: b.topo}
	c.down = make(map[int]bool, len(b.down))
	for k, v := range b.down {
		c.down[k] = v
	}
	return c
}

type Cached struct {
	vals []int
	memo map[int]int
}

// negative: declared, justified omission.

//lint:clone-skip memo: memo is a pure function of vals and is rebuilt lazily
func (c *Cached) Clone() *Cached {
	return &Cached{vals: append([]int(nil), c.vals...)}
}

// negative: Clone not returning the receiver type is not a state clone.

type Wrapper struct{ inner *Faults }

func (w *Wrapper) Clone() *Faults { return w.inner.Clone() }

// --- read-only snapshots ---

type Ledger struct {
	used map[int]int
}

func (l *Ledger) Clone() *Ledger {
	c := &Ledger{used: make(map[int]int, len(l.used))}
	for k, v := range l.used {
		c.used[k] = v
	}
	return c
}

func (l *Ledger) UseSlots(m, n int) bool { l.used[m] += n; return true }
func (l *Ledger) Used(m int) int         { return l.used[m] }

type Mutation struct{}

func commit(l *Ledger, mut *Mutation) error { return nil }

type Manager struct {
	snap *Ledger
}

func (m *Manager) snapshot() *Ledger { return m.snap }

// negative: reading a snapshot is the whole point.

func (m *Manager) Occupied(machine int) int {
	snap := m.snapshot()
	return snap.Used(machine)
}

// negative: Clone() first, then mutate freely.

func (m *Manager) Headroom() bool {
	scratch := m.snapshot().Clone()
	return scratch.UseSlots(0, 1)
}

// negative: clone taken from a tracked snapshot is private.

func (m *Manager) Plan(mut *Mutation) error {
	snap := m.snapshot()
	scratch := snap.Clone()
	scratch.used[0] = 9
	return commit(scratch, mut)
}

// positive: writing through the shared snapshot.

func (m *Manager) BadWrite() {
	snap := m.snapshot()
	snap.used[0] = 1 // want `write through shared snapshot snap`
}

// positive: calling a mutator on the shared snapshot.

func (m *Manager) BadUse() {
	snap := m.snapshot()
	snap.UseSlots(0, 1) // want `mutator UseSlots called on shared snapshot snap`
}

// positive: committing onto the shared snapshot.

func (m *Manager) BadCommit(mut *Mutation) error {
	snap := m.snapshot()
	return commit(snap, mut) // want `shared snapshot snap passed to commit`
}

// --- the scoped accessor: view lends fn the live ledger under a lock ---

type Node struct {
	mu   sync.Mutex
	live *Ledger
}

// negative: the accessor itself only locks and lends.

func view[T any](n *Node, fn func(*Ledger) T) T {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fn(n.live)
}

// negative: reading the lent ledger is the whole point.

func (n *Node) Occupied(machine int) int {
	return view(n, func(led *Ledger) int { return led.Used(machine) })
}

// negative: Clone() inside the view, then mutate the clone freely.

func (n *Node) Probe() bool {
	return view(n, func(led *Ledger) bool {
		scratch := led.Clone()
		scratch.used[1] = 2
		return scratch.UseSlots(0, 1)
	})
}

// positive: writing through the lent ledger.

func (n *Node) BadViewWrite() int {
	return view(n, func(led *Ledger) int {
		led.used[0] = 1 // want `write through shared snapshot led`
		return 0
	})
}

// positive: calling a mutator on the lent ledger, also through an
// explicit instantiation.

func (n *Node) BadViewUse() bool {
	return view[bool](n, func(led *Ledger) bool {
		return led.UseSlots(0, 1) // want `mutator UseSlots called on shared snapshot led`
	})
}

// --- read-only cached DP tables (plan cache) ---

// rec locates one vertex's record in the table's slab.
type rec struct {
	ver    uint64
	filled bool
	cap    int
	off    int
}

type table struct {
	recs []rec
	slab []float64
}

func (t *table) cachedRecords() []rec { return t.recs }

// negative: the selection scan only reads the records and, through their
// offsets, the slab.

func (t *table) Best(n int) int {
	recs := t.cachedRecords()
	for i := range recs {
		if recs[i].filled && recs[i].cap >= n && t.slab[recs[i].off+n] < 1 {
			return i
		}
	}
	return -1
}

// negative: the compute kernel writes the table it owns directly.

func (t *table) compute(v int, ver uint64) {
	r := &t.recs[v]
	t.slab[r.off] = 0
	r.ver, r.filled = ver, true
}

// positive: writing through the cached view bypasses the kernels.

func (t *table) BadFill(v int) {
	recs := t.cachedRecords()
	recs[v].filled = true // want `write through shared snapshot recs`
}

// positive: so does moving a record's cells under a reader.

func (t *table) BadMove(v int) {
	recs := t.cachedRecords()
	recs[v].off = 0 // want `write through shared snapshot recs`
}
