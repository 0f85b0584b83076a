package sim

// This file is the hypervisor-side enforcement component of the paper's
// network sharing framework (Section III-C): deterministic virtual cluster
// reservations are enforced by rate limiting each VM so it "does not exceed
// the bandwidth specified in the virtual topology".
//
// The limiter is a token bucket: a sustained rate with an optional burst
// allowance. With zero burst it degenerates to a hard per-interval cap,
// which is the paper's model; a positive burst lets a VM briefly exceed its
// reservation using credit accumulated while idle, a common relaxation in
// real hypervisor rate limiters.

import (
	"fmt"
	"math"
)

// TokenBucket enforces a sustained rate (Mbps) with a burst allowance (Mb).
// The zero value is unusable; construct with NewTokenBucket. TokenBucket is not safe
// for concurrent use; the simulator drives each bucket from one goroutine.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
}

// NewTokenBucket returns a token bucket enforcing the given sustained rate with the
// given burst depth. rate must be positive (use Unlimited for no limit);
// burst must be non-negative. The bucket starts full.
func NewTokenBucket(rate, burst float64) (*TokenBucket, error) {
	if rate <= 0 || math.IsNaN(rate) {
		return nil, fmt.Errorf("sim: token bucket rate must be positive, got %v", rate)
	}
	if burst < 0 || math.IsNaN(burst) {
		return nil, fmt.Errorf("sim: token bucket burst must be non-negative, got %v", burst)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Unlimited returns a limiter that never constrains traffic, used for
// stochastic tenants which the framework deliberately does not rate limit.
func Unlimited() *TokenBucket {
	return &TokenBucket{rate: math.Inf(1)}
}

// Rate returns the sustained rate.
func (b *TokenBucket) Rate() float64 { return b.rate }

// Limit returns the maximum average rate the bucket permits over the next
// dt seconds: the sustained rate plus any banked burst credit, spread over
// the interval. dt must be positive.
func (b *TokenBucket) Limit(dt float64) float64 {
	if math.IsInf(b.rate, 1) {
		return math.Inf(1)
	}
	return b.rate + b.tokens/dt
}

// Consume records that the VM actually sent at the given rate for dt
// seconds, banking unused credit (up to the burst depth) or spending it.
// rate must not exceed Limit(dt); exceeding it indicates a caller bug and
// clamps the bucket at empty.
func (b *TokenBucket) Consume(rate, dt float64) {
	if math.IsInf(b.rate, 1) {
		return
	}
	b.tokens += (b.rate - rate) * dt
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 0 {
		b.tokens = 0
	}
}

// Tokens returns the current burst credit (Mb), for inspection in tests.
func (b *TokenBucket) Tokens() float64 { return b.tokens }
