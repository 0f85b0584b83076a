package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cdfProbs are the quantile levels at which occupancy distributions are
// reported.
var cdfProbs = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95}

// Fig9Result holds, per load and allocator, the distribution of the
// maximum bandwidth occupancy ratio sampled at every job arrival (paper
// Fig. 9).
type Fig9Result struct {
	Scale     string
	Loads     []float64
	Models    []string
	Quantiles [][][]float64 // [load][model][prob] occupancy quantiles
	Samples   [][][]float64 // raw samples, for CDF consumers
}

// Fig9 reruns the paper's Fig. 9: the empirical CDF of the maximum link
// occupancy ratio across the datacenter under the SVC allocation algorithm
// versus the adapted TIVC algorithm, at 20% and 60% load. Lower quantiles
// mean the allocator leaves more bandwidth headroom.
func Fig9(sc Scale, loads []float64) (*Fig9Result, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.6}
	}
	models := AllocatorModels()
	res := &Fig9Result{Scale: sc.Name, Loads: loads}
	for _, m := range models {
		res.Models = append(res.Models, m.Name)
	}
	p := sc.params(-1, false)
	jobs, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	for _, load := range loads {
		arrivals, err := sc.arrivalsFor(p, sc.Topo, load, sc.Seed+7)
		if err != nil {
			return nil, err
		}
		var qs, raw [][]float64
		for _, m := range models {
			topo, err := sc.buildTopo(0)
			if err != nil {
				return nil, err
			}
			online, err := sim.RunOnline(m.simConfig(topo), jobs, arrivals)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s load %v: %w", m.Name, load, err)
			}
			qs = append(qs, metrics.Quantiles(online.MaxOccAtArrival, cdfProbs))
			raw = append(raw, online.MaxOccAtArrival)
		}
		res.Quantiles = append(res.Quantiles, qs)
		res.Samples = append(res.Samples, raw)
	}
	return res, nil
}

// Render formats occupancy quantiles per load and allocator, followed by a
// text CDF plot of the occupancy distribution (the paper's Fig. 9 curves).
func (r *Fig9Result) Render() string {
	out := ""
	for li, load := range r.Loads {
		t := metrics.Table{
			Title:   fmt.Sprintf("Fig 9 — max bandwidth occupancy ratio quantiles at %.0f%% load, scale=%s", 100*load, r.Scale),
			Headers: []string{"allocator"},
		}
		for _, p := range cdfProbs {
			t.Headers = append(t.Headers, fmt.Sprintf("p%.0f", 100*p))
		}
		for mi, m := range r.Models {
			row := []string{m}
			for _, v := range r.Quantiles[li][mi] {
				row = append(row, metrics.F(v))
			}
			t.AddRow(row...)
		}
		out += t.String()
		for mi, m := range r.Models {
			out += fmt.Sprintf("CDF of max occupancy, %s:\n%s", m,
				metrics.CDFPlot(r.Samples[li][mi], 0.9, 1.0, 6, 40))
		}
	}
	return out
}

// Fig10Result holds rejection rates of the SVC allocation algorithm versus
// the adapted TIVC algorithm across loads (paper Fig. 10).
type Fig10Result struct {
	Scale         string
	Loads         []float64
	Models        []string
	RejectionRate [][]float64 // [model][load]
}

// Fig10 reruns the paper's Fig. 10: rejection rates of the two allocators
// across loads. The paper finds them nearly identical — the occupancy
// optimization does not hurt the ability to accept future requests.
func Fig10(sc Scale, loads []float64) (*Fig10Result, error) {
	loads, models, rates, err := rejectionSweep(sc, "fig10", AllocatorModels(), loads)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Scale: sc.Name, Loads: loads, Models: models, RejectionRate: rates}, nil
}

// Render formats the result.
func (r *Fig10Result) Render() string {
	return renderRejection(fmt.Sprintf("Fig 10 — rejection rate, SVC algorithm vs adapted TIVC, scale=%s", r.Scale),
		"allocator", r.Loads, r.Models, r.RejectionRate)
}
