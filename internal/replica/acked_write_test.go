package replica

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestAckedAdmissionLostAtFailover shows the first hole of ROADMAP item 2
// ("Acked means replicated"): a primary acknowledges a write once its
// local fsync is done, and a standby may be promoted once it has applied
// up to the last durable frontier it saw. When the primary acks and dies
// before the standby fetches that record, the frontier the standby saw
// predates the ack, its lag reads zero, promotion succeeds, and the
// acknowledged admission is gone from the new primary.
//
// The test asserts today's behaviour: the acked job is absent. Step 1 of
// item 2 (a commit waits for a standby's cursor to pass its record before
// it acks) inverts the assertion: the ack either reaches the standby or
// never happens.
func TestAckedAdmissionLostAtFailover(t *testing.T) {
	m, j, err := wal.Recover(t.TempDir(), testTopo(t), testEps, nil) // fsync on: an ack follows the local fsync
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	workload(t, m)

	// The seam passes chunks through until the primary has acked the
	// keyed admission below; from then on the primary is dead.
	var acked atomic.Bool
	fetch := func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
		if acked.Load() {
			return wal.TailChunk{}, errors.New("primary unreachable")
		}
		return j.Tail(ctx, cur, maxBytes, wait)
	}
	s, err := New(Config{
		Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps,
		Fetch: fetch, NoSync: true,
		WALOpts: []wal.Option{wal.WithNoSync()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	syncToFrontier(t, s)

	const key = "acked-before-shipped"
	a, err := m.AllocateHomog(homog(1, 2, 1), core.WithIdemKey(key))
	if err != nil {
		t.Fatalf("primary refused the admission: %v", err)
	}
	acked.Store(true)
	if _, bound := m.ExportState().Idem[key]; !bound {
		t.Fatal("test setup: the primary holds no binding for the acked key")
	}

	prom, err := s.Promote(context.Background())
	if err != nil {
		t.Fatalf("promotion refused (the hole is closed; invert this test): %v", err)
	}
	defer prom.Journal.Close()
	if lag := prom.Lag; lag.Bytes != 0 || lag.Records != 0 {
		t.Fatalf("promoted with lag %+v; the standby's last frontier should predate the ack", lag)
	}
	st := prom.Mgr.ExportState()
	if _, bound := st.Idem[key]; bound {
		t.Fatalf("the new primary holds key %q: the acked write survived (the hole is closed; invert this test)", key)
	}
	for _, job := range st.Jobs {
		if core.JobID(job.ID) == a.ID {
			t.Fatalf("the new primary holds acked job %d (the hole is closed; invert this test)", a.ID)
		}
	}
}
