package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the programs the benchmark builds from the working tree.
var binaries = []string{"emiserve", "emirouter", "emiscale", "figures"}

// buildBinaries compiles the measured programs from the repository at root
// into dir. An unchanged tree relinks nothing, so repeated runs pay only
// the up-to-date check.
func buildBinaries(ctx context.Context, root, dir string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %v: %w", binaries, err)
	}
	return nil
}

// tailBuffer keeps the last few KiB written to it: a child's stderr, shown
// when the child fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf) - tailCap; n > 0 {
		t.buf = append(t.buf[:0:0], t.buf[n:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one long-running child process: a server of the system under
// test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr *tailBuffer
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
}

// startProc starts bin with args. The child is killed if the benchmark
// dies without stopping it.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), stderr: &tailBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain with SIGTERM, kills it if it has not
// exited after a grace period, and waits until it is reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB returns the process's peak resident set in MiB, or 0 once it
// has exited.
func (p *proc) peakRSSMB() float64 { return vmHWM(p.cmd.Process.Pid) }

// vmHWM returns a live process's peak resident set (VmHWM) in MiB, 0 when
// it cannot be read.
func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// freeAddr reserves a free loopback port and releases it for a child to
// bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// sutSpec describes the system under test of a service workload.
type sutSpec struct {
	replicas int  // emiserve processes
	router   bool // front them with an emirouter
	durable  bool // give each replica a data directory (fsync off)
}

// sut is a running system under test.
type sut struct {
	url   string         // entry point: the router, or the only replica
	rssMB func() float64 // peak resident memory summed over its processes
	stop  func()
}

// launcher starts systems under test. The benchmark launches the built
// binaries; tests substitute in-process servers.
type launcher interface {
	launch(ctx context.Context, sp sutSpec) (*sut, error)
}

// procLauncher runs the built emiserve and emirouter binaries. Data
// directories go under work.
type procLauncher struct {
	bin, work string
}

func (l procLauncher) launch(ctx context.Context, sp sutSpec) (*sut, error) {
	var procs []*proc
	stopAll := func() {
		for _, p := range procs {
			p.stop()
		}
	}
	var members, urls []string
	for i := 0; i < sp.replicas; i++ {
		addr, err := freeAddr()
		if err != nil {
			stopAll()
			return nil, err
		}
		args := []string{"-addr", addr, "-drain-timeout", "5s"}
		if sp.durable {
			dir, err := os.MkdirTemp(l.work, "data-")
			if err != nil {
				stopAll()
				return nil, err
			}
			args = append(args, "-data-dir", dir, "-fsync", "off")
		}
		p, err := startProc(filepath.Join(l.bin, "emiserve"), args...)
		if err != nil {
			stopAll()
			return nil, err
		}
		procs = append(procs, p)
		members = append(members, fmt.Sprintf("r%d=http://%s", i, addr))
		urls = append(urls, "http://"+addr)
	}
	for i, u := range urls {
		if err := awaitReady(ctx, u, 0, procs[i]); err != nil {
			stopAll()
			return nil, err
		}
	}
	entry := urls[0]
	if sp.router {
		addr, err := freeAddr()
		if err != nil {
			stopAll()
			return nil, err
		}
		p, err := startProc(filepath.Join(l.bin, "emirouter"),
			"-addr", addr, "-members", strings.Join(members, ","))
		if err != nil {
			stopAll()
			return nil, err
		}
		procs = append(procs, p)
		entry = "http://" + addr
		if err := awaitReady(ctx, entry, sp.replicas, p); err != nil {
			stopAll()
			return nil, err
		}
	}
	return &sut{
		url: entry,
		rssMB: func() float64 {
			var sum float64
			for _, p := range procs {
				sum += p.peakRSSMB()
			}
			return sum
		},
		stop: stopAll,
	}, nil
}

// readyPoll is how often readiness is polled; it is the resolution of
// setup_s.
const readyPoll = 500 * time.Microsecond

// awaitReady polls url/readyz until it answers 200 and, when wantReady is
// positive, reports that many ready members (a router's view of its
// replicas). A non-nil p that exits first fails the wait with its stderr.
func awaitReady(ctx context.Context, url string, wantReady int, p *proc) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited before ready: %v\n%s", p.name, p.err, p.stderr)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			var body struct {
				Ready int `json:"ready"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && (wantReady <= 0 || body.Ready >= wantReady) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", url, ctx.Err())
		case <-time.After(readyPoll):
		}
	}
}

// command is one finished run of an offline program.
type command struct {
	start, started, end time.Time // before Start, after Start, after Wait
	stdout, stderr      []byte
	maxRSSMB            float64
}

// runCommand runs bin to completion in dir.
func runCommand(ctx context.Context, dir, bin string, args ...string) (command, error) {
	var c command
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return c, fmt.Errorf("start %s: %w", bin, err)
	}
	c.started = time.Now()
	err := cmd.Wait()
	c.end = time.Now()
	c.stdout, c.stderr = out.Bytes(), errb.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return c, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(errb.Bytes(), 20))
		}
		return c, err
	}
	return c, nil
}

// lastLines returns at most n trailing lines of b.
func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// drain discards and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
