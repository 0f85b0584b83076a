package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/bench/svcload"
)

// The reference host's processor does not run at one speed. It has two
// clock rates a quarter apart and keeps either for seconds or minutes;
// and when the neighbours it shares a core with are busy, code made of
// branches and small allocations slows by up to half again while plain
// arithmetic hardly notices (README, "Processor speed"). Everything the
// benchmark times follows both. Ten runs spread by a fifth of their
// median from this alone, which no later change could be told from.
//
// So every timed interval is measured on a clock that runs at the
// processor's speed: before and after it the benchmark times a fixed
// piece of calibration work, and the interval counts for as long as it
// would have taken at the speed where that work takes calibrationRef.
//
// The work is two loops of about equal length at the reference speed: a
// chain of dependent floating-point operations, which follows the clock
// rate, and encoding and decoding a small JSON document, which is what a
// server's code is made of and follows the neighbours. Neither touches
// the repository's code, so nothing a change does can move them.
const (
	spinSteps      = 3_250_000
	jsonRounds     = 920
	calibrationRef = 10 * time.Millisecond // both loops on the reference host at its best
)

// calibrationDoc is the document the second loop encodes and decodes:
// the shape of an allocation request, declared here so that it stays
// what it is.
type calibrationDoc struct {
	N       int                 `json:"n"`
	Mu      float64             `json:"mu"`
	Sigma   float64             `json:"sigma"`
	Demands []calibrationDemand `json:"demands"`
}

type calibrationDemand struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

var (
	spinSink float64
	docSink  calibrationDoc
)

// hostSpeed does the calibration work once and returns how fast the
// processor runs now, as a share of the reference speed.
func hostSpeed() float64 {
	doc := calibrationDoc{N: 8, Mu: 300, Sigma: 100, Demands: make([]calibrationDemand, 8)}
	for i := range doc.Demands {
		doc.Demands[i] = calibrationDemand{Mu: 100 + float64(i), Sigma: 33.3}
	}
	start := time.Now()
	x := 1.0
	for i := 0; i < spinSteps; i++ {
		x = x*1.0000001 + 0.1
	}
	spinSink = x
	for i := 0; i < jsonRounds; i++ {
		b, err := json.Marshal(&doc)
		if err != nil {
			panic(err) // a struct of numbers always encodes
		}
		var back calibrationDoc
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		docSink = back
	}
	return float64(calibrationRef) / float64(time.Since(start))
}

// stopwatch times one interval on the speed-scaled clock.
type stopwatch struct {
	res   *result
	speed float64
	start time.Time
}

// stopwatch starts timing; the calibration work comes first.
func (r *result) stopwatch() stopwatch {
	return stopwatch{res: r, speed: hostSpeed(), start: time.Now()}
}

// stop ends the interval and does the calibration work again. It returns
// the interval at reference speed and the scale it applied — the mean of
// the speeds found before and after — for whatever else was measured
// over the same interval.
func (s stopwatch) stop() (scaled time.Duration, scale float64) {
	raw := time.Since(s.start)
	scale = (s.speed + hostSpeed()) / 2
	s.res.speeds = append(s.res.speeds, scale)
	return time.Duration(float64(raw) * scale), scale
}

// time runs one stretch of work under a stopwatch and returns the scale
// of the clock over it.
func (r *result) time(_ context.Context, run func()) (scale float64) {
	watch := r.stopwatch()
	run()
	_, scale = watch.stop()
	return scale
}

// laps adds up, on the speed-scaled clock, a piece of work that takes
// seconds — long enough for the processor to change its speed on the way
// — one stretch at a time. A nil *laps times nothing.
type laps struct {
	res   *result
	total time.Duration
}

func (l *laps) time(stretch func()) {
	if l == nil {
		stretch()
		return
	}
	watch := l.res.stopwatch()
	stretch()
	d, _ := watch.stop()
	l.total += d
}

// speed is the median of the speeds the run's stopwatches found.
func (r *result) speed() float64 { return svcload.Median(r.speeds) }
