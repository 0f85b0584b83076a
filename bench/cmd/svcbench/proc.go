package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// svcd is one child daemon. It is measured from outside only: the time
// from exec to its first answer, /proc/<pid>, and its HTTP surface.
type svcd struct {
	env    *env
	cmd    *exec.Cmd
	url    string
	boot   time.Duration // exec to the first 200 on /v1/status
	client *httpapi.Client

	once   sync.Once
	tail   []string // the last lines of its stderr, for error reports
	tailMu sync.Mutex
}

var listenLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// startSvcd execs svcd on a loopback port of the kernel's choosing and
// waits for it to answer. The flags are the ones the ground rules allow:
// -state-dir, -no-sync, -role and -follow.
func (e *env) startSvcd(ctx context.Context, args ...string) (*svcd, error) {
	return e.startChild(ctx, e.svcd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
}

// startRefServer execs this binary as the reference server (refserver.go)
// with its file in a fresh directory.
func (e *env) startRefServer(ctx context.Context, fsync bool) (*svcd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return e.startChild(ctx, self, "-refserver", e.dir("ref"), fmt.Sprintf("-refserver-sync=%t", fsync))
}

// startChild execs a server that logs its loopback address and answers
// GET /v1/status, and waits until it does.
func (e *env) startChild(ctx context.Context, bin string, args ...string) (*svcd, error) {
	s := &svcd{env: e}
	s.cmd = exec.Command(bin, args...)
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec svcd: %w", err)
	}
	e.mu.Lock()
	e.procs[s] = struct{}{}
	e.mu.Unlock()

	// The daemon logs its address once recovery is done and the listener
	// is open. Keep draining stderr afterwards so it never blocks on a
	// full pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.tailMu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.tailMu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("svcd exited before listening: %s", s.stderrTail())
		}
		s.url = "http://" + a
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("svcd did not listen within 60s: %s", s.stderrTail())
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(s.url + "/v1/status")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Since(begin) > 60*time.Second || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("svcd not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	s.boot = time.Since(begin)
	s.client = httpapi.NewClient(s.url, nil, httpapi.WithRetries(0))
	return s, nil
}

func (s *svcd) stderrTail() string {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	return strings.Join(s.tail, " | ")
}

// kill sends SIGKILL and waits for the process to end. It returns the
// processor time the child used over its whole life.
func (s *svcd) kill() (cpu time.Duration) {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		s.cmd.Wait() // the error is the kill we just sent
		s.env.mu.Lock()
		delete(s.env.procs, s)
		s.env.mu.Unlock()
	})
	if st := s.cmd.ProcessState; st != nil {
		return st.UserTime() + st.SystemTime()
	}
	return 0
}

// clockTick is the unit of the times in /proc/<pid>/stat (USER_HZ,
// which Linux fixes at 100 on every architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU reads the child's user and system time from /proc/<pid>/stat.
func (s *svcd) procCPU() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; the fields after its closing
	// parenthesis are fixed. utime and stime are fields 14 and 15.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// procField reads one "Key: value" number from a /proc/<pid> file; 0
// when the file or the key is missing (some sandboxes hide /proc/<pid>/io).
func (s *svcd) procField(file, key string) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", s.cmd.Process.Pid, file))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			n, _ := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
			return n
		}
	}
	return 0
}

// rssPeakMB is the child's peak resident set (VmHWM).
func (s *svcd) rssPeakMB() float64 { return float64(s.procField("status", "VmHWM")) / 1024 }

// writeBytes is what the child has sent to the storage layer so far.
func (s *svcd) writeBytes() int64 { return s.procField("io", "write_bytes") }
