package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"repro/internal/topology"
)

// eps is the risk factor every workload runs at (svcd's default).
const eps = 0.05

// workers is the number of load-generating goroutines, each with one
// keep-alive connection. One: its request and svcd's reply take turns on
// the one processor the run is pinned to (pin.go), and nothing the
// benchmark starts ever waits for the host to schedule a second one.
const workers = 1

// env is what every workload needs from its surroundings: the checkout,
// the svcd binary built from it, a scratch directory inside it, and the
// paper's topology.
type env struct {
	root string // the checkout: the directory holding go.mod and cmd/svcd
	svcd string // path of the built svcd binary
	tmp  string // this process's scratch directory, removed on exit
	out  string // bench/out, for the trace files
	topo *topology.Topology

	mu    sync.Mutex
	procs map[*svcd]struct{}
	dirs  int
}

// findRoot walks up from dir to the checkout's root.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "svcd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout found: need a directory holding go.mod and cmd/svcd above the working directory (or -root)")
		}
		dir = parent
	}
}

// newEnv builds svcd from the checkout and prepares the scratch
// directory. Everything it writes stays under <root>/.bench_build and
// <root>/bench/out.
func newEnv(root string) (*env, error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root = wd
	}
	root, err := findRoot(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:  root,
		svcd:  filepath.Join(build, "bin", "svcd"),
		out:   filepath.Join(root, "bench", "out"),
		procs: make(map[*svcd]struct{}),
	}
	for _, d := range []string{filepath.Join(build, "bin"), filepath.Join(build, "tmp"), e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", e.svcd, "./cmd/svcd")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("build svcd: %v\n%s", err, outp)
	}
	if e.topo, err = topology.NewThreeTier(topology.PaperConfig()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// dir returns a fresh, empty directory under the scratch directory.
func (e *env) dir(name string) string {
	e.mu.Lock()
	e.dirs++
	d := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, e.dirs))
	e.mu.Unlock()
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(err) // the scratch directory was just created by this process
	}
	return d
}

// close kills every child still running and removes the scratch
// directory. It runs on every exit path, including failures and signals.
func (e *env) close() {
	e.mu.Lock()
	procs := make([]*svcd, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.tmp)
}

// fsType names the filesystem holding path. fsync on tmpfs is a no-op,
// so a durable run there measures nothing; callers warn about it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// hostInfo describes the machine a baseline was measured on.
type hostInfo struct {
	NProc    int     `json:"nproc"`
	CPU      string  `json:"cpu_model"`
	Go       string  `json:"go_version"`
	Kernel   string  `json:"kernel"`
	FS       string  `json:"state_dir_fs"`
	LoadAvg1 float64 `json:"loadavg_1min_at_start"`
}

func readHost(stateDir string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), FS: fsType(stateDir)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		// The host's processors, not the one this process is pinned to.
		if n := strings.Count("\n"+string(b), "\nprocessor"); n > 0 {
			h.NProc = n
		}
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &h.LoadAvg1)
	}
	return h
}

// copyDir copies the regular files of one flat directory into another.
func copyDir(dst, src string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// walBytes returns the total size of the write-ahead-log files in dir.
func walBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		st, err := os.Stat(n)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
