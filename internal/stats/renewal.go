package stats

import "math"

// Renewal is one entity's alternating renewal process: up for an
// exponentially distributed time of mean MTBF, then down for one of mean
// MTTR, and so on from second 0, up. Every phase is a whole number of
// seconds and at least one — both event loops that draw from it (the
// flow simulator's and the scenario engine's) tick in seconds, and a
// phase of zero would let a draw-until-the-horizon loop spin. Events are
// drawn lazily, one per Next, so an open-ended run and a compile-time
// horizon loop share it; give each entity its own stream (Rand.Child) and
// its schedule does not depend on how many events its neighbours drew.
type Renewal struct {
	rng        *Rand
	mtbf, mttr float64
	at         int  // second of the last event
	down       bool // the last event was a failure
}

// NewRenewal starts a process that is up at second 0. Both means must be
// positive.
func NewRenewal(rng *Rand, mtbf, mttr float64) *Renewal {
	return &Renewal{rng: rng, mtbf: mtbf, mttr: mttr}
}

// Next draws the next event: the second it happens at, and whether it is
// the failure (true) or the restore that follows one.
func (r *Renewal) Next() (at int, fail bool) {
	if r.down {
		r.at += r.Downtime()
	} else {
		r.at += wholeSeconds(r.rng.Exp(r.mtbf))
	}
	r.down = !r.down
	return r.at, r.down
}

// Downtime draws one more repair time from the process's stream without
// advancing it: a correlated failure's staggered restores, taken between
// a failure and the entity's own restore.
func (r *Renewal) Downtime() int { return wholeSeconds(r.rng.Exp(r.mttr)) }

func wholeSeconds(x float64) int { return max(1, int(math.Round(x))) }
