package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig7Result holds request rejection rates under each abstraction as the
// datacenter load grows (paper Fig. 7).
type Fig7Result struct {
	Scale         string
	Loads         []float64
	Models        []string
	RejectionRate [][]float64 // [model][load]
}

// Fig7 reruns the paper's Fig. 7: dynamically arriving jobs (Poisson), a
// job is rejected if it cannot be allocated on arrival; rejection rate vs
// load.
func Fig7(sc Scale, loads []float64) (*Fig7Result, error) {
	loads, models, rates, err := rejectionSweep(sc, "fig7", StandardModels(), loads)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Scale: sc.Name, Loads: loads, Models: models, RejectionRate: rates}, nil
}

// Render formats the result.
func (r *Fig7Result) Render() string {
	return renderRejection(fmt.Sprintf("Fig 7 — rejected requests vs datacenter load, scale=%s", r.Scale),
		"model", r.Loads, r.Models, r.RejectionRate)
}

// rejectionSweep is the online-rejection sweep behind Fig7 and Fig10: the
// scale's job population arrives (Poisson) at each load, once per model
// on a fresh tree, and a job is rejected if it cannot be allocated on
// arrival. Empty loads mean 20 % to 80 %. It returns the loads, the model
// names and the rejection rate per model and load; fig prefixes errors.
func rejectionSweep(sc Scale, fig string, models []Model, loads []float64) ([]float64, []string, [][]float64, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8}
	}
	p := sc.params(-1, false)
	jobs, err := workload.Generate(p)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	var rates [][]float64
	for _, m := range models {
		names = append(names, m.Name)
		row := make([]float64, 0, len(loads))
		for _, load := range loads {
			arrivals, err := sc.arrivalsFor(p, sc.Topo, load, sc.Seed+7)
			if err != nil {
				return nil, nil, nil, err
			}
			topo, err := sc.buildTopo(0)
			if err != nil {
				return nil, nil, nil, err
			}
			online, err := sim.RunOnline(m.simConfig(topo), jobs, arrivals)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s %s load %v: %w", fig, m.Name, load, err)
			}
			row = append(row, online.RejectionRate)
		}
		rates = append(rates, row)
	}
	return loads, names, rates, nil
}

// renderRejection formats a rejection sweep: one row per model, labelled
// by the first column's header, one column per load.
func renderRejection(title, label string, loads []float64, models []string, rates [][]float64) string {
	t := metrics.Table{Title: title, Headers: []string{label}}
	for _, l := range loads {
		t.Headers = append(t.Headers, fmt.Sprintf("load=%.0f%%", 100*l))
	}
	for i, m := range models {
		row := []string{m}
		for _, v := range rates[i] {
			row = append(row, metrics.Pct(v))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Fig8Result holds the concurrent-job counts sampled at every arrival for
// percentile-VC and SVC at 60% load (paper Fig. 8).
type Fig8Result struct {
	Scale       string
	Load        float64
	Models      []string
	Series      [][]int // concurrency at each arrival, per model
	Mean        []float64
	MeanOverPct float64 // SVC mean concurrency relative to percentile-VC
}

// Fig8 reruns the paper's Fig. 8: the number of concurrent jobs whenever a
// new job arrives, percentile-VC vs SVC(0.05), at 60% load. The paper
// reports SVC sustaining about 10% more concurrent jobs.
func Fig8(sc Scale, load float64) (*Fig8Result, error) {
	if load == 0 {
		load = 0.6
	}
	models := []Model{
		{Name: "percentile-VC", Abstraction: sim.PercentileVC, Eps: 0.05},
		{Name: "SVC(eps=0.05)", Abstraction: sim.SVC, Eps: 0.05},
	}
	res := &Fig8Result{Scale: sc.Name, Load: load}
	p := sc.params(-1, false)
	jobs, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	arrivals, err := sc.arrivalsFor(p, sc.Topo, load, sc.Seed+7)
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		topo, err := sc.buildTopo(0)
		if err != nil {
			return nil, err
		}
		online, err := sim.RunOnline(m.simConfig(topo), jobs, arrivals)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", m.Name, err)
		}
		res.Models = append(res.Models, m.Name)
		res.Series = append(res.Series, online.ConcurrencyAtArrival)
		res.Mean = append(res.Mean, online.MeanConcurrency)
	}
	if res.Mean[0] > 0 {
		res.MeanOverPct = res.Mean[1] / res.Mean[0]
	}
	return res, nil
}

// Render formats the result: mean concurrency per model, the SVC-over-
// percentile ratio, and a decimated concurrency series.
func (r *Fig8Result) Render() string {
	t := metrics.Table{
		Title:   fmt.Sprintf("Fig 8 — concurrent jobs at %.0f%% load, scale=%s", 100*r.Load, r.Scale),
		Headers: []string{"model", "mean-concurrency"},
	}
	for i, m := range r.Models {
		t.AddRow(m, metrics.F(r.Mean[i]))
	}
	s := t.String()
	s += fmt.Sprintf("SVC / percentile-VC concurrency ratio: %.3f (paper: ~1.10)\n", r.MeanOverPct)
	s += "concurrency over arrivals:\n"
	for i, m := range r.Models {
		series := make([]float64, 0, len(r.Series[i])/4+1)
		for j := 0; j < len(r.Series[i]); j += 4 {
			series = append(series, float64(r.Series[i][j]))
		}
		s += fmt.Sprintf("  %-16s %s\n", m, metrics.Sparkline(series))
	}
	return s
}
