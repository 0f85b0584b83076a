package stats

import "testing"

// TestRenewal: events alternate fail/restore from an up state, every
// phase is a whole second or more (so a sub-second mean still advances),
// the phase means are the model's, a seed replays exactly, and a Downtime
// draw between two events moves neither the clock nor the phase.
func TestRenewal(t *testing.T) {
	const mtbf, mttr, cycles = 400.0, 30.0, 20000
	r, twin := NewRenewal(NewRand(7), mtbf, mttr), NewRenewal(NewRand(7), mtbf, mttr)
	last, up, down := 0, 0, 0
	for i := 0; i < 2*cycles; i++ {
		at, fail := r.Next()
		if tat, tfail := twin.Next(); tat != at || tfail != fail {
			t.Fatalf("event %d: same seed drew (%d, %v) and (%d, %v)", i, at, fail, tat, tfail)
		}
		if fail != (i%2 == 0) {
			t.Fatalf("event %d: fail = %v, want alternation starting with a failure", i, fail)
		}
		if at <= last {
			t.Fatalf("event %d at second %d, not after %d", i, at, last)
		}
		if fail {
			up += at - last
		} else {
			down += at - last
		}
		last = at
	}
	if got := float64(up) / cycles; got < 0.95*mtbf || got > 1.05*mtbf {
		t.Errorf("mean up-time %.1f s, want about %v", got, mtbf)
	}
	if got := float64(down) / cycles; got < 0.95*mttr || got > 1.05*mttr {
		t.Errorf("mean down-time %.1f s, want about %v", got, mttr)
	}

	a, b := NewRenewal(NewRand(9), 0.01, 0.01), NewRenewal(NewRand(9), 0.01, 0.01)
	if at, _ := a.Next(); at != 1 {
		t.Fatalf("a sub-second up-time ended at second %d, want 1", at)
	}
	b.Next()
	if d := a.Downtime(); d != 1 {
		t.Fatalf("sub-second Downtime = %d, want 1", d)
	}
	if at, fail := a.Next(); at != 2 || fail {
		t.Fatalf("after a Downtime draw Next = (%d, %v), want the restore at second 2", at, fail)
	}
}
