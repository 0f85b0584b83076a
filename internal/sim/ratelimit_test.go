package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewTokenBucket(0, 10); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := NewTokenBucket(-5, 10); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewTokenBucket(100, -1); err == nil {
		t.Error("negative burst accepted")
	}
	if _, err := NewTokenBucket(math.NaN(), 0); err == nil {
		t.Error("NaN rate accepted")
	}
}

func TestHardCapWithoutBurst(t *testing.T) {
	b, err := NewTokenBucket(100, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := b.Limit(1); got != 100 {
		t.Errorf("Limit = %v, want 100 (no burst credit)", got)
	}
	b.Consume(100, 1)
	if got := b.Limit(1); got != 100 {
		t.Errorf("Limit after full use = %v, want 100", got)
	}
	// Idling banks nothing when burst is zero.
	b.Consume(0, 5)
	if got := b.Limit(1); got != 100 {
		t.Errorf("Limit after idle = %v, want 100", got)
	}
}

func TestBurstBanksIdleCredit(t *testing.T) {
	b, err := NewTokenBucket(100, 50)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Starts full: may send 150 for one second.
	if got := b.Limit(1); got != 150 {
		t.Errorf("initial Limit = %v, want 150", got)
	}
	b.Consume(150, 1) // spend the whole burst
	if got := b.Limit(1); got != 100 {
		t.Errorf("Limit after burst = %v, want 100", got)
	}
	b.Consume(60, 1) // idle 40 Mb of credit back
	if got := b.Limit(1); got != 140 {
		t.Errorf("Limit after partial idle = %v, want 140", got)
	}
	// Credit never exceeds the burst depth.
	b.Consume(0, 100)
	if got := b.Limit(1); got != 150 {
		t.Errorf("Limit after long idle = %v, want 150", got)
	}
}

func TestUnlimited(t *testing.T) {
	b := Unlimited()
	if !math.IsInf(b.Limit(1), 1) {
		t.Errorf("Unlimited Limit = %v", b.Limit(1))
	}
	b.Consume(1e12, 1) // must be a no-op
	if !math.IsInf(b.Limit(1), 1) {
		t.Error("Unlimited bucket drained")
	}
}

func TestOverconsumeClampsAtEmpty(t *testing.T) {
	b, err := NewTokenBucket(100, 20)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b.Consume(1000, 1) // caller bug: way past the limit
	if got := b.Tokens(); got != 0 {
		t.Errorf("tokens = %v, want clamped to 0", got)
	}
}

// TestLongRunAverageRespectsRate: however the consumer schedules its
// sending (always at the instantaneous limit), the long-run average cannot
// exceed rate + burst/T.
func TestLongRunAverageRespectsRate(t *testing.T) {
	f := func(rateRaw, burstRaw uint8, steps uint8) bool {
		rate := float64(rateRaw) + 1
		burst := float64(burstRaw)
		n := int(steps)%50 + 10
		b, err := NewTokenBucket(rate, burst)
		if err != nil {
			return false
		}
		var total float64
		for i := 0; i < n; i++ {
			r := b.Limit(1) // send as hard as allowed
			total += r
			b.Consume(r, 1)
		}
		avg := total / float64(n)
		return avg <= rate+burst/float64(n)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateAccessor(t *testing.T) {
	b, err := NewTokenBucket(123, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := b.Rate(); got != 123 {
		t.Errorf("Rate = %v, want 123", got)
	}
}
