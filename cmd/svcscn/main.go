// Command svcscn runs declarative scenarios (scenarios/*.yaml) against
// the SVC controller and checks their assertion blocks.
//
// Usage:
//
//	svcscn validate scenarios/*.yaml        # parse + validate only
//	svcscn run scenarios/baseline.yaml      # offline run, human report
//	svcscn run -backend live file.yaml      # in-process svcd over HTTP+WAL
//	svcscn run -backend both file.yaml      # both, and require agreement
//	svcscn run -seed 99 -json file.yaml     # override seed, JSON report
//
// With -backend live and no -addr, svcscn starts the daemon svcd runs
// (internal/daemon) in-process with a temporary nosync write-ahead log —
// and, for chaos.failovers, a real standby node behind it; -addr points
// it at an already running svcd instead.
//
// Exit status: 0 all runs passed, 1 an assertion failed (or the backends
// disagreed under -backend both), 2 the run itself broke.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/daemon"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(errOut, "usage: svcscn <run|validate> [flags] <scenario.yaml>...")
		return 2
	}
	switch args[0] {
	case "validate":
		return runValidate(args[1:], out, errOut)
	case "run":
		return runRun(args[1:], out, errOut)
	default:
		fmt.Fprintf(errOut, "svcscn: unknown subcommand %q (want run or validate)\n", args[0])
		return 2
	}
}

func load(path string) (*scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func runValidate(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("svcscn validate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	quiet := fs.Bool("q", false, "suppress per-file output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(errOut, "svcscn validate: no scenario files given")
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		s, err := load(path)
		if err != nil {
			fmt.Fprintf(errOut, "svcscn: %v\n", err)
			bad++
			continue
		}
		if !*quiet {
			fmt.Fprintf(out, "%s: ok (%s)\n", path, s.Name)
		}
	}
	if bad > 0 {
		return 2
	}
	return 0
}

func runRun(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("svcscn run", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		backend = fs.String("backend", "sim", "backend: sim | live | both")
		addr    = fs.String("addr", "", "base URL of a running svcd (live backend); empty starts one in-process")
		seed    = fs.Uint64("seed", 0, "override the scenario seed (0 = use the file's)")
		asJSON  = fs.Bool("json", false, "emit the JSON report instead of the human-readable one")
		outDir  = fs.String("o", "", "also write <name>.<backend>.json report files into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(errOut, "svcscn run: no scenario files given")
		return 2
	}
	switch *backend {
	case "sim", "live", "both":
	default:
		fmt.Fprintf(errOut, "svcscn run: unknown backend %q (want sim, live, or both)\n", *backend)
		return 2
	}

	status := 0
	for _, path := range fs.Args() {
		s, err := load(path)
		if err != nil {
			fmt.Fprintf(errOut, "svcscn: %v\n", err)
			return 2
		}
		var reports []*scenario.Report
		if *backend == "sim" || *backend == "both" {
			rep, err := runOne(s, *seed, "sim", "")
			if err != nil {
				fmt.Fprintf(errOut, "svcscn: %s [sim]: %v\n", path, err)
				return 2
			}
			reports = append(reports, rep)
		}
		if *backend == "live" || *backend == "both" {
			rep, err := runOne(s, *seed, "live", *addr)
			if err != nil {
				fmt.Fprintf(errOut, "svcscn: %s [live]: %v\n", path, err)
				return 2
			}
			reports = append(reports, rep)
		}
		for _, rep := range reports {
			if err := emit(rep, *asJSON, *outDir, out); err != nil {
				fmt.Fprintf(errOut, "svcscn: %v\n", err)
				return 2
			}
			if !rep.Pass {
				status = 1
			}
		}
		if len(reports) == 2 {
			if msg := diverges(reports[0], reports[1]); msg != "" {
				fmt.Fprintf(errOut, "svcscn: %s: backends disagree: %s\n", path, msg)
				status = 1
			}
		}
	}
	return status
}

// runOne compiles and executes one scenario on one backend.
func runOne(s *scenario.Scenario, seed uint64, backend, addr string) (*scenario.Report, error) {
	if seed == 0 {
		seed = s.Seed
	}
	plan, err := s.CompileSeeded(seed)
	if err != nil {
		return nil, err
	}
	var b scenario.Backend
	switch backend {
	case "sim":
		if s.Run.Shards > 0 {
			dir, err := os.MkdirTemp("", "svcscn-shard-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			b, err = scenario.NewShardBackend(dir, plan.Topo, s.Eps, s.Run.Shards, s.Run.ShardMode)
			if err != nil {
				return nil, err
			}
			break
		}
		b, err = scenario.NewSimBackend(plan.Topo, s.Eps)
		if err != nil {
			return nil, err
		}
	case "live":
		failovers := s.Chaos != nil && len(s.Chaos.Failovers) > 0
		if failovers && addr != "" {
			return nil, fmt.Errorf("chaos.failovers needs the runner to own the daemon; drop -addr")
		}
		if failovers && s.Run.Shards > 0 {
			return nil, fmt.Errorf("sharded failovers crash-recover the router in-process; run them with -backend sim")
		}
		if addr != "" {
			b = scenario.NewLiveBackend(addr)
			break
		}
		dir, err := os.MkdirTemp("", "svcscn-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		b, err = scenario.StartLive(daemon.Config{
			Topo: plan.Topo, Eps: s.Eps, StateDir: dir,
			Shards: s.Run.Shards, ShardMode: s.Run.ShardMode,
		}, failovers)
		if err != nil {
			return nil, err
		}
	}
	defer b.Close()
	return scenario.Run(plan, b)
}

// diverges compares the outcome counts two backends produced for the
// same plan; empty means they agree.
func diverges(a, b *scenario.Report) string {
	switch {
	case a.Admitted != b.Admitted || a.Rejected != b.Rejected:
		return fmt.Sprintf("admissions %d/%d vs %d/%d", a.Admitted, a.Rejected, b.Admitted, b.Rejected)
	case a.Completed != b.Completed || a.Killed != b.Killed || a.Evicted != b.Evicted:
		return fmt.Sprintf("lifecycle %d/%d/%d vs %d/%d/%d",
			a.Completed, a.Killed, a.Evicted, b.Completed, b.Killed, b.Evicted)
	case a.Pass != b.Pass:
		return fmt.Sprintf("verdict %v vs %v", a.Pass, b.Pass)
	}
	return ""
}

func emit(rep *scenario.Report, asJSON bool, outDir string, out io.Writer) error {
	buf, err := rep.JSON()
	if err != nil {
		return err
	}
	if outDir != "" {
		path := fmt.Sprintf("%s/%s.%s.json", outDir, rep.Scenario, rep.Backend)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
	}
	if asJSON {
		_, err = out.Write(buf)
		return err
	}
	_, err = io.WriteString(out, rep.Render())
	return err
}
