// Package determinism fixtures: clock, RNG, and map-order cases.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// --- negative: referencing time.Now as a value is the injection seam ---

var nowFunc = time.Now

func Stamp() time.Time { return nowFunc() }

// --- positive: direct wall-clock reads ---

func BadNow() time.Time {
	return time.Now() // want `time\.Now in a journal-feeding package`
}

func BadSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since in a journal-feeding package`
}

// --- negative: a privately seeded generator ---

func Jitter(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// --- positive: global RNG state ---

func BadPick(n int) int {
	return rand.Intn(n) // want `package-level rand\.Intn uses shared global RNG`
}

func BadShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `package-level rand\.Shuffle uses shared global RNG`
}

// --- map-order: negative when sorted afterwards ---

func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- map-order: negative via a project-local sort helper ---

func sortPairs(ps []int) { sort.Ints(ps) }

func Pairs(m map[int]int) []int {
	ps := make([]int, 0, len(m))
	for k := range m {
		ps = append(ps, k)
	}
	sortPairs(ps)
	return ps
}

// --- map-order: negative when ranging over a slice ---

func Sum(xs []int) []int {
	out := []int{}
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// --- map-order: positive append without a sort ---

func BadKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want `append to out inside map iteration without a later sort`
	}
	return out
}

// --- map-order: positive channel send ---

func BadStream(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside map iteration publishes map order`
	}
}

// --- map-order: cache eviction victim selection ---

// negative: FIFO insertion-order eviction — the victim is whatever key
// the fixed-size ring's oldest slot holds, never a map iteration's pick.

type ring struct {
	slots []string
	next  int
}

func (r *ring) push(k string) string {
	old := r.slots[r.next]
	r.slots[r.next] = k
	r.next = (r.next + 1) % len(r.slots)
	return old
}

func EvictRing(cache map[string]int, resident *ring, k string) {
	if oldest := resident.push(k); oldest != "" {
		delete(cache, oldest)
	}
	cache[k] = 0
}

// positive: collecting eviction victims by ranging the cache map bakes
// nondeterministic map order into which entries die.

func BadEvict(cache map[string]int, n int) []string {
	victims := []string{}
	for k := range cache {
		victims = append(victims, k) // want `append to victims inside map iteration without a later sort`
		if len(victims) == n {
			break
		}
	}
	return victims
}
