package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/wal"
)

// TestWALTailWireGolden pins the body of GET /v1/wal, byte for byte: a
// reset chunk without a snapshot, a continuation chunk, and a reset chunk
// with one. The files in testdata/waltail were written by commit 294cd30,
// when the handler still copied wal.TailChunk into a struct of its own,
// and must not be regenerated from this code: a standby one version
// behind or ahead reads these bytes. The same three chunks fetched through
// Client.WALTail must come back as the journal's own Tail returns them.
func TestWALTailWireGolden(t *testing.T) {
	ctx := context.Background()
	mgr, j, err := wal.Recover(t.TempDir(), failoverTopo(t), 0.05, nil, wal.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := NewServer(mgr)
	srv.Swap(Wiring{Controller: mgr, WALTail: j.Tail})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, nil)

	admit := func(n int, key string) core.JobID {
		t.Helper()
		a, err := mgr.AllocateHomog(core.Homogeneous{N: n, Demand: stats.Normal{Mu: 40, Sigma: 15}}, core.WithIdemKey(key))
		if err != nil {
			t.Fatal(err)
		}
		return a.ID
	}
	check := func(name string, cur wal.Cursor) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/wal?gen=%d&off=%d", ts.URL, cur.Gen, cur.Off))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, resp.StatusCode, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "waltail", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: GET /v1/wal body differs from the golden:\n got %s\nwant %s", name, got, want)
		}
		direct, err := j.Tail(ctx, cur, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fetched, err := client.WALTail(ctx, cur, 0, 0); err != nil || !reflect.DeepEqual(fetched, direct) {
			t.Errorf("%s: Client.WALTail = %+v (err %v), Journal.Tail = %+v", name, fetched, err, direct)
		}
	}

	first := admit(3, "golden-a")
	mid := j.DurableCursor()
	admit(6, "golden-b")
	if err := mgr.Release(first, core.WithIdemKey("golden-release")); err != nil {
		t.Fatal(err)
	}
	check("reset", wal.Cursor{})
	check("continuation", mid)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	admit(2, "golden-c")
	check("reset-snapshot", mid)
}
