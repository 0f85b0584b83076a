package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/bench/svcload"
	"repro/internal/httpapi"
)

// The reference server is the calibration work of the HTTP workloads: a
// second child process, this binary under -refserver, that answers every
// request with a fixed piece of work of the kinds svcd's handlers do — it
// decodes a JSON body, allocates and fills a buffer the size of the
// ledger svcd clones per admission, appends a record to a file (and
// syncs it, when the workload's svcd does), and encodes a JSON reply —
// behind the same net/http server, over the same loopback connection,
// from the same generator on the same processor. What the host does to a
// request to svcd — system calls, context switches, a cache gone cold
// while the connection was idle, a slow disk — it does to a request to
// this server; nothing a change to the repository does can move it.
type refServer struct {
	src  []byte
	sink []byte
	log  *os.File
	sync bool
}

// refClone is the size of the buffer a reference request fills: what
// core.snapshot_clone_kb measures on the paper topology.
const refClone = 78 << 10

// refRecord is the size of the record a reference request appends: a
// catalogue admission's log record.
const refRecord = 280

func (s *refServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var doc calibrationDoc
	if r.ContentLength > 0 {
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if err := s.work(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&doc) // a failed write is the client's to report
}

// work is what a reference request does between decoding and encoding.
func (s *refServer) work() error {
	buf := make([]byte, refClone)
	copy(buf, s.src)
	s.sink = buf
	if _, err := s.log.Write(buf[:refRecord]); err != nil {
		return err
	}
	if s.sync {
		return s.log.Sync()
	}
	return nil
}

// Do implements svcload.Target with no connection and no second process:
// the handler's work — decode, work, encode — on the caller's goroutine.
// It is the reference of the workloads that cross no connection
// themselves.
func (s *refServer) Do(_ context.Context, _ svcload.Kind, req *httpapi.AllocationRequest, _ int64, _ string) svcload.Reply {
	in, err := json.Marshal(req)
	if err != nil {
		return svcload.Reply{Err: err}
	}
	var doc calibrationDoc
	if err := json.Unmarshal(in, &doc); err != nil {
		return svcload.Reply{Err: err}
	}
	if err := s.work(); err != nil {
		return svcload.Reply{Err: err}
	}
	out, err := json.Marshal(&doc)
	return svcload.Reply{Status: http.StatusOK, ReqBytes: len(in), RespBytes: len(out), Err: err}
}

func openRefServer(dir string, sync bool) (*refServer, error) {
	f, err := os.OpenFile(filepath.Join(dir, "ref.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &refServer{src: make([]byte, refClone), log: f, sync: sync}, nil
}

// runRefServer is svcbench -refserver: it serves until it is killed.
func runRefServer(dir string, sync bool) int {
	srv, err := openRefServer(dir, sync)
	if err == nil {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			fmt.Fprintf(os.Stderr, "reference server listening on %s\n", ln.Addr())
			err = http.Serve(ln, srv)
		}
	}
	fmt.Fprintln(os.Stderr, "svcbench -refserver:", err)
	return 1
}

// reference is a running reference server and the generator's connection
// to it: the HTTP workloads' clock.
type reference struct {
	res     *result
	child   *svcd               // over HTTP: the server process
	conn    *svcload.HTTPTarget // and the connection to it
	direct  *refServer          // called directly: the server
	dir     string              // and its file's directory
	load    *svcload.Runner
	gen     *svcload.Gen
	nominal float64   // its requests per second at the reference speed
	last    float64   // its speed when last measured,
	at      time.Time // and when that was
	speeds  []float64 // every speed measured
}

const (
	// refSlice is how long the reference server is driven, closed loop,
	// between two measured slices.
	refSlice = 150 * time.Millisecond
	// The reference server's closed-loop rates on the baseline host at its
	// best, without and with a sync per request.
	refRate     = 24000
	refRateSync = 4000
	// Its rates when called directly: inside embedded-admit's process, and
	// inside restart-recover's, whose heap holds the two state directories'
	// states and makes every collection dearer.
	refRateEmbedded = 60000
	refRateRestart  = 30000
	// refWeight is the reference server's weight in the scale of a slice;
	// the calibration loops of speed.go have the rest. On the baseline
	// host, over two sets of ten runs of each HTTP workload between which
	// the host slowed by a quarter, the loops alone left the sets' medians
	// up to 12 % apart and the reference server alone up to 6 %, each on
	// another workload; any weight from a half to six sevenths left 6-9 %.
	refWeight = 2.0 / 3
)

// startReference starts the reference server, syncing its file after
// every request when the workload's svcd does.
func (e *env) startReference(ctx context.Context, res *result, fsync bool, seed uint64) (*reference, error) {
	child, err := e.startRefServer(ctx, fsync)
	if err != nil {
		return nil, err
	}
	conn := svcload.NewHTTPTarget(child.url, 1)
	r := &reference{res: res, child: child, conn: conn, nominal: refRate,
		load: &svcload.Runner{Target: conn},
		gen:  svcload.NewGen(svcload.Mix{Name: "reference", DryRun: 1}, seed)}
	if fsync {
		r.nominal = refRateSync
	}
	return r, nil
}

// directReference opens the reference server inside this process, to be
// called without a connection: the clock of the workloads that cross
// none themselves.
func (e *env) directReference(res *result, seed uint64, nominal float64) (*reference, error) {
	dir := e.dir("ref")
	srv, err := openRefServer(dir, false)
	if err != nil {
		return nil, err
	}
	return &reference{res: res, direct: srv, dir: dir, nominal: nominal,
		load: &svcload.Runner{Target: srv},
		gen:  svcload.NewGen(svcload.Mix{Name: "reference", DryRun: 1}, seed)}, nil
}

func (r *reference) stop() {
	if r.direct != nil {
		r.direct.log.Close()
		os.RemoveAll(r.dir)
		return
	}
	r.conn.Close()
	r.child.kill()
}

// measure drives the reference server for one reference slice and
// returns its speed as a share of the reference speed.
func (r *reference) measure(ctx context.Context) float64 {
	p := r.load.ClosedLoop(ctx, r.gen, refSlice, 1)
	r.last = float64(p.Done) / p.Elapsed.Seconds() / r.nominal
	r.speeds = append(r.speeds, r.last)
	r.at = time.Now()
	return r.last
}

// time runs one slice of an HTTP workload and returns the scale of the
// clock over it: the weighted geometric mean of the processor's speed, by
// the stopwatch around the slice, and the reference server's, measured
// before the slice (the measurement after the slice before it, when that
// has only just ended) and after.
func (r *reference) time(ctx context.Context, run func()) (scale float64) {
	before := r.last
	if time.Since(r.at) > refSlice {
		before = r.measure(ctx)
	}
	loops := r.res.time(ctx, run)
	server := (before + r.measure(ctx)) / 2
	if _, failed, _, _ := r.load.Tally(); failed > 0 || server == 0 {
		r.res.failf("reference server: %d requests failed: %v", failed, r.load.Failures())
		return loops
	}
	return math.Pow(loops, 1-refWeight) * math.Pow(server, refWeight)
}

// speed is the median of the reference server's measured speeds.
func (r *reference) speed() float64 { return svcload.Median(r.speeds) }
