package core

import (
	"fmt"
	"slices"

	"repro/internal/stats"
	"repro/internal/topology"
)

// LinkAudit is one audited link's Monte Carlo tally.
type LinkAudit struct {
	Link      topology.LinkID
	Tenants   int // stochastic tenants with VMs on both sides of the link
	Overflows int // samples whose realized load exceeded the link's capacity
}

// Audit re-measures Eq. 4's promise, Pr(link overflow) < eps, over an
// exported state by Monte Carlo. In each of samples rounds it draws every
// stochastic tenant's per-VM demands and charges each link min(inside,
// outside) of the realized sums on top of its deterministic reservations
// (LinkRecord.Det, which holds the deterministic tenants); a round whose
// load exceeds the link's capacity is an overflow. A link is audited when
// a stochastic tenant has VMs on both sides of it and it is not in
// st.LinksDown. Audit returns the number of stochastic tenants and the
// audited links in ID order. It is pure: one stats.NewRand(seed) stream,
// tenants in st.Jobs (ID) order, each tenant's VMs in order. A stochastic
// heterogeneous tenant is refused, never skipped: Audit draws homogeneous
// tenants only.
func Audit(topo *topology.Topology, st *ManagerState, samples int, seed uint64) (stochastic int, links []LinkAudit, err error) {
	if len(st.Links) != topo.Len() {
		return 0, nil, fmt.Errorf("core: audit: state has %d link records for a %d-node topology", len(st.Links), topo.Len())
	}
	var tenants []Homogeneous
	var prefix [][]float64                  // prefix[t][v]: tenant t's first v VMs' demand in this round
	perLink := make([][][2]int, topo.Len()) // link -> (tenant, VMs inside), in tenant order
	var d deriver
	for _, js := range st.Jobs {
		if slices.ContainsFunc(js.Hetero, func(d stats.Normal) bool { return d.Sigma > 0 }) {
			return 0, nil, fmt.Errorf("core: audit: job %d is stochastic and heterogeneous; Audit draws homogeneous tenants only", js.ID)
		}
		if js.Homog == nil || !(js.Homog.Sigma > 0) {
			continue
		}
		ti, n := len(tenants), js.Homog.N
		tenants = append(tenants, Homogeneous{N: n, Demand: stats.Normal{Mu: js.Homog.Mu, Sigma: js.Homog.Sigma}})
		prefix = append(prefix, make([]float64, n+1))
		// The derivation's walk: each link above the tenant, with its count.
		d.walk(topo, &Placement{Entries: js.Placement}, nil)
		for _, l := range d.touched {
			if c := d.inside[l]; c < n {
				perLink[l] = append(perLink[l], [2]int{ti, c})
			}
			d.inside[l] = 0
		}
		d.touched = d.touched[:0]
	}
	for l, xs := range perLink {
		if len(xs) > 0 && !slices.Contains(st.LinksDown, l) {
			links = append(links, LinkAudit{Link: topology.LinkID(l), Tenants: len(xs)})
		}
	}

	rng := stats.NewRand(seed)
	for s := 0; s < samples; s++ {
		for t, h := range tenants {
			p := prefix[t]
			for v := 0; v < h.N; v++ {
				p[v+1] = p[v] + rng.Normal(h.Demand)
			}
		}
		for i := range links {
			la := &links[i]
			total := st.Links[la.Link].Det
			for _, cr := range perLink[la.Link] {
				p := prefix[cr[0]]
				if cross := min(p[cr[1]], p[len(p)-1]-p[cr[1]]); cross > 0 {
					total += cross
				}
			}
			if total > topo.LinkCap(la.Link) {
				la.Overflows++
			}
		}
	}
	return len(tenants), links, nil
}
