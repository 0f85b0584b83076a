package scenario

import (
	"fmt"

	"repro/internal/core"
)

// mcSeedSalt derives the Monte Carlo stream from the scenario seed; the
// fleet and chaos streams use Child() chains off the raw seed, so the
// salted stream is independent of both.
const mcSeedSalt = 0x9e3779b97f4a7c15

// measureGuarantee re-measures the paper's Eq. 4 bound over the backend's
// current state with core.Audit and reports the link that overflowed
// most often: the guarantee holds when that frequency is within the
// asserted eps plus the Monte Carlo margin.
func (e *engine) measureGuarantee() (*GuaranteeReport, error) {
	spec := e.plan.Scenario.Assert.Guarantee
	epsAsserted := spec.Eps
	if epsAsserted == 0 {
		epsAsserted = e.plan.Scenario.Eps
	}
	rep := &GuaranteeReport{
		At: e.plan.GuaranteeAt, Samples: spec.Samples,
		EpsAsserted: epsAsserted, Margin: spec.Margin,
		WorstLink: -1,
	}
	st, err := e.backend.State()
	if err != nil {
		return nil, fmt.Errorf("scenario: export state for guarantee: %w", err)
	}
	stochastic, links, err := core.Audit(e.plan.Topo, st, spec.Samples, e.plan.Seed^mcSeedSalt)
	if err != nil {
		return nil, fmt.Errorf("scenario: guarantee: %w", err)
	}
	rep.StochasticJobs, rep.LinksChecked = stochastic, len(links)
	for _, la := range links {
		freq := float64(la.Overflows) / float64(spec.Samples)
		if freq > rep.WorstFreq || rep.WorstLink < 0 {
			rep.WorstFreq, rep.WorstLink = freq, int(la.Link)
		}
	}
	rep.Pass = rep.WorstFreq <= epsAsserted+spec.Margin
	return rep, nil
}
