// Command svcbench is the repository's benchmark. It builds the real
// cmd/svcd, runs five named workloads against it (one of them against
// the library in process), checks every output, and prints every metric
// by name with its unit.
//
//	svcbench -workload durable-churn -seed 1 -seconds 20 -trace 0   # one run, end-to-end metrics
//	svcbench -workload durable-churn -seed 1 -seconds 20 -trace 1   # one run, per-layer metrics
//	svcbench                                                         # every workload, both ways
//	svcbench -repeat 10 -out bench/baseline/seed.json                # spread of each metric against its bound
//
// A single-workload run ends with one JSON line: correct, attempted,
// failed, metrics. The exit code is non-zero when a check fails. See
// bench/README.md for what each workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, e *env, seed uint64, seconds float64, trace bool) (*result, error)
}

func httpWorkload(name, why string) workload {
	return workload{name: name, why: why, run: func(ctx context.Context, e *env, seed uint64, seconds float64, trace bool) (*result, error) {
		return runHTTP(ctx, e, name, seed, seconds, trace)
	}}
}

var workloads = []workload{
	httpWorkload("durable-churn", "svcd with fsync; keyed 50/50 admit/release of 8 catalogue flavours, one connection, closed loop (traced runs add 900 req/s open loop): the log does the work, the planner almost none"),
	httpWorkload("plan-miss", "svcd -no-sync; the paper's job population, every request a new plan-cache key, one connection, closed loop (traced runs add 400 req/s open loop): the planner does the work, the log almost none"),
	httpWorkload("read-mix", "svcd -no-sync; 80 % dryrun/status/links beside 20 % admit/release, one connection, closed loop (traced runs add 2500 req/s open loop): readers share core's snapshots with writers, HTTP dominates"),
	{name: "restart-recover", why: "no load: exec-to-ready on a 100k-record log and on a snapshot, and kill -9 failover to a standby; the log is decoded and replayed instead of appended, and replica runs", run: runRestart},
	{name: "embedded-admit", why: "no HTTP, no process: one goroutine calls core.Manager directly, closed loop; the admission pipeline is the whole cost, so an HTTP-layer change must not move it", run: runEmbedded},
}

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 20

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultLine is the last line of a single-workload run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reports every metric of the requested kind, by name; a per-layer
// metric the workload cannot observe reads 0.
func (r *result) line(trace bool) resultLine {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layers
	}
	out := resultLine{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// report prints a run's metrics and failed checks for a person.
func (r *result) report(name string, seed uint64, trace bool) {
	l := r.line(trace)
	kind := "end to end"
	if trace {
		kind = "per layer"
	}
	fmt.Fprintf(os.Stderr, "== %s, seed %d, %s: attempted %d, failed %d\n", name, seed, kind, l.Attempted, l.Failed)
	names := make([]string, 0, len(l.Metrics))
	for n := range l.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "   %-42s %14.4f %s\n", n, l.Metrics[n].Value, l.Metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "   CHECK FAILED: %s\n", p)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "run one workload: durable-churn, plan-miss, read-mix, restart-recover, embedded-admit (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "how long a run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the layer probes")
		repeat   = flag.Int("repeat", 0, "run every workload this many times, on seeds seed, seed+1, ..., and print each end-to-end metric's spread against its bound")
		out      = flag.String("out", "", "with -repeat: write the baseline (host, e2e, layers) to this file")
		root     = flag.String("root", "", "the checkout to build svcd from (default: found above the working directory)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		refDir   = flag.String("refserver", "", "serve as the HTTP workloads' reference server, with its file in this directory (svcbench starts this itself)")
		refSync  = flag.Bool("refserver-sync", false, "with -refserver: sync the file after every request")
	)
	flag.Parse()
	if *refDir != "" {
		return runRefServer(*refDir, *refSync)
	}
	if *manifest {
		return printManifest()
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "svcbench: -trace takes 0 or 1")
		return 2
	}
	pinToOneCPU()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	defer e.close()

	switch {
	case *repeat > 0:
		err = runRepeat(ctx, e, *seed, *seconds, *repeat, *out)
	case *name == "":
		err = runAll(ctx, e, *seed, *seconds)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "svcbench: unknown workload %q\n", *name)
			return 2
		}
		var res *result
		if res, err = w.run(ctx, e, *seed, *seconds, *trace == 1); err == nil {
			res.report(w.name, *seed, *trace == 1)
			line := res.line(*trace == 1)
			b, merr := json.Marshal(line)
			if merr != nil {
				err = merr
				break
			}
			fmt.Println(string(b))
			if !line.Correct {
				err = errIncorrect
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("a correctness check failed")

// runAll runs every workload once each way and prints every metric.
func runAll(ctx context.Context, e *env, seed uint64, seconds float64) error {
	bad := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := w.run(ctx, e, seed, seconds, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.report(w.name, seed, trace)
			if !res.line(trace).Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed a correctness check", bad)
	}
	return nil
}

// manifestFile is BENCHMARK.json's shape.
type manifestFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{Name: w.name, Why: w.why})
	}
	return m
}

func printManifest() int {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
