package core

import "time"

// nowFunc is the controller's only clock. Latency measurements
// (admission planning, repair) read it instead of calling time.Now
// directly so tests can inject a deterministic clock and so the
// determinism analyzer can hold the rest of the package to a
// no-wall-clock rule: journaled state must never depend on when a
// mutation ran, only on its order in the log.
var nowFunc = time.Now

// Now reads the injected clock — exported for replica, which times the
// steps of a promotion on it.
func Now() time.Time { return nowFunc() }

// since measures elapsed time against the injected clock (time.Since
// would consult the wall clock regardless of nowFunc).
func since(t0 time.Time) time.Duration { return nowFunc().Sub(t0) }

// SetClockForTesting swaps the clock seam and returns a restore
// function. Tests use it to fake latency without sleeping.
func SetClockForTesting(f func() time.Time) (restore func()) {
	prev := nowFunc
	nowFunc = f
	return func() { nowFunc = prev }
}
