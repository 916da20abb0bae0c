package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSet owns every process a run starts. A process that exits before
// the run stops it cancels the run: a dead daemon must fail the run, not
// read as a fast one. Children get SIGKILL if the benchmark itself dies
// (Pdeathsig), so none outlives it.
type procSet struct {
	cancel context.CancelFunc

	mu    sync.Mutex
	procs []*proc
	died  []string
}

func newProcSet(cancel context.CancelFunc) *procSet { return &procSet{cancel: cancel} }

// proc is one child process.
type proc struct {
	name     string
	cmd      *exec.Cmd
	out      *tailBuffer
	done     chan struct{}
	stopping atomic.Bool
}

// tailBuffer keeps the last 16 KiB a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 16<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-16<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// start launches a daemon: path with args. stdout, when non-nil,
// receives the child's standard output; otherwise it goes to the tail
// buffer.
func (ps *procSet) start(name, path string, stdout *os.File, args ...string) (*proc, error) {
	return ps.spawn(name, path, stdout, false, args)
}

// startTask launches a command that is expected to exit by itself; its
// exit does not fail the run, and the caller checks its status.
func (ps *procSet) startTask(name, path string, stdout *os.File, args ...string) (*proc, error) {
	return ps.spawn(name, path, stdout, true, args)
}

func (ps *procSet) spawn(name, path string, stdout *os.File, exits bool, args []string) (*proc, error) {
	cmd := exec.Command(path, args...)
	p := &proc{name: name, cmd: cmd, out: &tailBuffer{}, done: make(chan struct{})}
	p.stopping.Store(exits)
	cmd.Stderr = p.out
	cmd.Stdout = p.out
	if stdout != nil {
		cmd.Stdout = stdout
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	go func() {
		err := cmd.Wait()
		close(p.done)
		if !p.stopping.Load() {
			ps.mu.Lock()
			ps.died = append(ps.died, fmt.Sprintf("%s exited during the run (%v); its output ends:\n%s", name, err, p.out.String()))
			ps.mu.Unlock()
			ps.cancel()
		}
	}()
	return p, nil
}

// err reports processes that died unexpectedly.
func (ps *procSet) err() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.died) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(ps.died, "\n"))
}

// stop asks the process to shut down (SIGTERM) and kills it after
// grace. It returns once the process has exited.
func (p *proc) stop(grace time.Duration) {
	p.stopping.Store(true)
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, from
// its rusage; valid once it has exited.
func (p *proc) peakRSSMB() float64 {
	if p.cmd.ProcessState == nil {
		return 0
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hwmMB is the running process's peak resident set so far (VmHWM) in
// MiB, 0 once it has exited.
func (p *proc) hwmMB() float64 { return hwmMB(p.cmd.Process.Pid) }

// hwmMB reads process pid's VmHWM in MiB.
func hwmMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64) // 0 on a format change
			return kb / 1024
		}
	}
	return 0
}

// cpu returns the process's user+system CPU time so far, from
// /proc/PID/stat (clock ticks of 10 ms).
func (p *proc) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// killAll stops every process still running, SIGKILL after a short
// grace, and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := append([]*proc(nil), ps.procs...)
	ps.mu.Unlock()
	for _, p := range procs {
		p.stop(3 * time.Second)
	}
}

// freeAddr returns a loopback address with a kernel-assigned port. The
// port is free when returned; readiness checks verify that the daemon
// answering on it is ours (by its signing key), so a stale listener
// cannot stand in for it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// waitFor polls check every 5 ms until it succeeds, the process exits
// or the timeout passes.
func waitFor(ctx context.Context, p *proc, timeout time.Duration, check func() error) error {
	name := "daemon"
	if p != nil {
		name = p.name
	}
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil {
			return nil
		}
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited before it was ready: %s", p.name, p.out.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %w", name, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
