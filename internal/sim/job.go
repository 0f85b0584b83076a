package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Abstraction is how a tenant expresses a job's bandwidth requirement to
// the network manager (paper Section VI-A, "alternate abstractions").
type Abstraction int

const (
	// SVC requests the stochastic virtual cluster derived from the demand
	// profile; no rate limiting is applied, bandwidth is shared
	// statistically.
	SVC Abstraction = iota + 1
	// MeanVC requests the deterministic Oktopus cluster with B = mean of
	// the demand profile; VM rates are capped at B.
	MeanVC
	// PercentileVC requests the deterministic cluster with B = 95th
	// percentile of the profile; VM rates are capped at B.
	PercentileVC
)

// ParseAbstraction is the inverse of Abstraction.String, used by job-file
// deserialization.
func ParseAbstraction(s string) (Abstraction, error) {
	switch s {
	case "SVC", "svc":
		return SVC, nil
	case "mean-VC", "mean-vc", "mean":
		return MeanVC, nil
	case "percentile-VC", "percentile-vc", "percentile":
		return PercentileVC, nil
	default:
		return 0, fmt.Errorf("sim: unknown abstraction %q", s)
	}
}

// String implements fmt.Stringer.
func (a Abstraction) String() string {
	switch a {
	case SVC:
		return "SVC"
	case MeanVC:
		return "mean-VC"
	case PercentileVC:
		return "percentile-VC"
	default:
		return fmt.Sprintf("Abstraction(%d)", int(a))
	}
}

// nicFraction bounds deterministic per-VM reservations below the NIC rate:
// a VM can never generate traffic faster than its machine's link, so
// reserving the full link for one VM is meaningless and would make any
// multi-machine placement infeasible. Reserving slightly below keeps every
// job placeable, mirroring that the true (NIC-truncated) 95th percentile
// always lies strictly below the line rate.
const nicFraction = 0.98

// request derives the homogeneous virtual cluster request a job submits
// under the abstraction. nicCap is the machine link rate; advertised
// profiles and deterministic reservations are capped so that no single
// VM's 95th-percentile demand exceeds nicFraction of it.
func (a Abstraction) request(spec JobSpec, nicCap float64) (core.Homogeneous, error) {
	profile := ClampProfile(spec.Profile, nicCap)
	switch a {
	case SVC:
		return core.NewHomogeneous(spec.N, profile)
	case MeanVC:
		return core.MeanVC(spec.N, profile)
	case PercentileVC:
		return core.PercentileVC(spec.N, profile)
	default:
		return core.Homogeneous{}, fmt.Errorf("sim: unknown abstraction %d", int(a))
	}
}

// ClampProfile bounds an advertised demand distribution by the physics of
// the NIC: observed rates never exceed the line rate, so a profile fitted
// from them has mean below the NIC and a 95th percentile at most
// nicFraction of it. Without this, jobs whose raw mu + 1.645*sigma exceeds
// the NIC could never be placed under any abstraction.
func ClampProfile(p stats.Normal, nicCap float64) stats.Normal {
	u := nicFraction * nicCap
	if math.IsInf(u, 1) {
		return p
	}
	if p.Mu > u {
		p.Mu = u
	}
	if maxSigma := (u - p.Mu) / stats.PhiInv(core.Percentile95); p.Sigma > maxSigma {
		p.Sigma = maxSigma
	}
	return p
}

// rateCap returns the per-VM rate limit the hypervisor enforces under the
// abstraction. Stochastic abstractions are not rate limited (the paper's
// framework reserves nothing per VM and relies on placement instead).
func (a Abstraction) rateCap(profile stats.Normal, nicCap float64) float64 {
	clamped := ClampProfile(profile, nicCap)
	switch a {
	case MeanVC:
		return clamped.Mu
	case PercentileVC:
		return clamped.Quantile(core.Percentile95)
	default:
		return math.Inf(1)
	}
}

// JobSpec describes one tenant job: N tasks on N VMs exchanging flows of a
// uniform length, plus a compute phase; the job finishes at
// max(compute time, last flow completion).
type JobSpec struct {
	ID             int
	N              int
	Profile        stats.Normal   // advertised per-VM rate distribution (Mbps)
	Hetero         []stats.Normal // non-nil: per-VM profiles for heterogeneous scenarios
	ComputeSeconds int
	FlowMbits      float64 // uniform flow length L
	Seed           uint64  // demand stream seed (deterministic replay)

	// DemandDist, when non-nil, is the ground-truth distribution the
	// tasks actually draw rates from, while Profile remains what the
	// tenant advertises to the network manager. Workload generators keep
	// the two consistent (Profile = DemandDist.Moments()); setting them
	// apart deliberately models mis-estimated profiles. Ignored for
	// heterogeneous jobs.
	DemandDist stats.Dist

	// HeteroDists, when non-nil, gives heterogeneous jobs per-VM
	// ground-truth distributions (len == N), mirroring DemandDist for
	// homogeneous jobs. Hetero stays the advertised per-VM profile.
	HeteroDists []stats.Dist

	// Abstraction, when non-zero, overrides the scenario-wide abstraction
	// for this job, letting deterministic and stochastic tenants coexist
	// on one datacenter (the paper's Fig. 2 bandwidth split between D_L
	// and the statistically shared S_L).
	Abstraction Abstraction
}

// Validate checks the spec shape.
func (s JobSpec) Validate() error {
	switch {
	case s.N < 1:
		return fmt.Errorf("sim: job %d has N = %d", s.ID, s.N)
	case s.Hetero != nil && len(s.Hetero) != s.N:
		return fmt.Errorf("sim: job %d has %d hetero profiles for N = %d", s.ID, len(s.Hetero), s.N)
	case s.HeteroDists != nil && len(s.HeteroDists) != s.N:
		return fmt.Errorf("sim: job %d has %d hetero distributions for N = %d", s.ID, len(s.HeteroDists), s.N)
	case s.HeteroDists != nil && s.Hetero == nil:
		return fmt.Errorf("sim: job %d sets HeteroDists without Hetero profiles", s.ID)
	case s.ComputeSeconds < 0:
		return fmt.Errorf("sim: job %d has negative compute time", s.ID)
	case s.FlowMbits < 0:
		return fmt.Errorf("sim: job %d has negative flow length", s.ID)
	}
	return nil
}

// jobFlow is one task-to-task flow at runtime.
type jobFlow struct {
	sf        solverFlow
	remaining float64      // Mbits left to transfer
	demand    stats.Dist   // the source task's ground-truth rate distribution
	limiter   *TokenBucket // hypervisor rate limiter for the source VM
	done      bool
}

// runningJob is an admitted job's runtime state.
type runningJob struct {
	spec        JobSpec
	allocID     core.JobID
	start       int
	computeDone int
	flows       []*jobFlow
	live        int // flows still transferring
	netDone     int // second the last flow finished (start if no flows)
	rng         *stats.Rand
	machines    map[topology.NodeID]bool // machines hosting at least one VM
}

// finished reports whether the job is complete at the given time.
func (j *runningJob) finished(now int) bool {
	return j.live == 0 && now >= j.computeDone
}

// completionTime returns max(compute completion, network completion).
func (j *runningJob) completionTime() int {
	if j.netDone > j.computeDone {
		return j.netDone
	}
	return j.computeDone
}
