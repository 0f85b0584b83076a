package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/bench/svcload"
)

// spread summarises one end-to-end metric of one workload over repeated
// runs. IQR is the distance between the quartiles as a share of the
// median — the steadiness the benchmark is accepted on, which should
// stay under a third of the metric's bound. Range is (max−min)/median.
type spread struct {
	Unit   string    `json:"unit"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr_over_median"`
	Range  float64   `json:"range_over_median"`
	Values []float64 `json:"values"`
}

// quartiles are the exclusive-method quartiles of two or more values,
// computed the way Python's statistics.quantiles(values, n=4) does.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func summarise(def metricDef, vals []float64) spread {
	sp := spread{Unit: def.Unit, Bound: def.Bound, Median: svcload.Median(vals), Values: vals}
	if len(vals) >= 2 && sp.Median != 0 {
		sp.Q1, sp.Q3 = quartiles(vals)
		sp.IQR = (sp.Q3 - sp.Q1) / sp.Median
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		sp.Range = (hi - lo) / sp.Median
	}
	return sp
}

// baseline is what -repeat writes: where it was measured, every
// end-to-end metric's spread, and one traced run's per-layer metrics.
type baseline struct {
	Host    hostInfo                     `json:"host"`
	Seeds   []uint64                     `json:"seeds"`
	Seconds float64                      `json:"seconds"`
	E2E     map[string]map[string]spread `json:"e2e"`
	Layers  map[string]values            `json:"layers"`
}

// runRepeat runs every workload n times with tracing off, on seeds
// seed, seed+1, ..., and once traced, and prints each end-to-end
// metric's spread against its bound.
func runRepeat(ctx context.Context, e *env, seed uint64, seconds float64, n int, out string) error {
	b := baseline{Host: readHost(e.tmp), Seconds: seconds,
		E2E: map[string]map[string]spread{}, Layers: map[string]values{}}
	for i := 0; i < n; i++ {
		b.Seeds = append(b.Seeds, seed+uint64(i))
	}
	if limit := float64(b.Host.NProc) / 2; b.Host.LoadAvg1 > limit {
		fmt.Fprintf(os.Stderr, "svcbench: WARNING: 1-min load average %.2f is above nproc/2 = %.1f; the host is busy and the spreads will show it\n", b.Host.LoadAvg1, limit)
	}
	bad := 0
	for _, w := range workloads {
		runs := make(map[string][]float64)
		for _, s := range b.Seeds {
			res, err := w.run(ctx, e, s, seconds, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			res.report(w.name, s, false)
			if !res.line(false).Correct {
				bad++
			}
			for _, d := range endToEnd {
				runs[d.Name] = append(runs[d.Name], res.e2e[d.Name])
			}
		}
		b.E2E[w.name] = map[string]spread{}
		for _, d := range endToEnd {
			b.E2E[w.name][d.Name] = summarise(d, runs[d.Name])
		}
		res, err := w.run(ctx, e, seed, seconds, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		res.report(w.name, seed, true)
		if !res.line(true).Correct {
			bad++
		}
		b.Layers[w.name] = res.layers
	}

	fmt.Printf("%-16s %-18s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			sp := b.E2E[w.name][d.Name]
			flag := ""
			if d.Name != "setup_s" && sp.IQR > sp.Bound {
				flag = "  SPREAD OVER BOUND"
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f %12.4f %8.3f %8.3f %6.2f%s\n",
				w.name, d.Name, sp.Median, sp.Q1, sp.Q3, sp.IQR, sp.Range, sp.Bound, flag)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed a correctness check", bad)
	}
	return nil
}
