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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Proc is one running cmd/serve child process.
type Proc struct {
	Name       string
	URL        string // http://127.0.0.1:port
	GOMAXPROCS int
	cmd        *exec.Cmd
	exited     chan struct{}
	waitErr    error
}

// startServe launches the serve binary with args plus a loopback listen
// address on a free port, and returns once the process reports the address
// it listens on.
func startServe(bin, name string, gomaxprocs int, args ...string) (*Proc, error) {
	args = append(args, "-listen", "127.0.0.1:0", "-drain", "1s")
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &Proc{Name: name, GOMAXPROCS: gomaxprocs, cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	var tail []string // last lines, for the error message if the start fails
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				tail = append(tail, line)
				if a, ok := strings.CutPrefix(line, "serve: listening on "); ok {
					addr <- a
					sent = true
				}
			}
		}
		// The pipe closes when the process exits; Wait may only run after
		// every read from it has finished.
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.URL = "http://" + a
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %v: %s", name, p.waitErr, strings.Join(tail, " | "))
	case <-time.After(30 * time.Second):
		p.Stop()
		return nil, fmt.Errorf("%s did not report a listen address within 30s", name)
	}
}

// Stop asks the process to drain and exit, kills it if it has not exited
// within five seconds, and waits until it has ended.
func (p *Proc) Stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpuTicks is the process's CPU time (user+system) in clock ticks, from
// /proc/<pid>/stat.
func (p *Proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// field 14 and stime field 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return u + st, nil
}

// hwmKB is the process's peak resident set (VmHWM) in KiB.
func (p *Proc) hwmKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// MemStats is the part of a server's runtime.MemStats the benchmark reads.
type MemStats struct{ TotalAlloc, Mallocs uint64 }

// readMemStats fetches a server's MemStats from the runtime.MemStats block
// that /debug/pprof/heap?debug=1 appends to the heap profile.
func readMemStats(ctx context.Context, client *http.Client, base string) (MemStats, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return MemStats{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return MemStats{}, err
	}
	defer resp.Body.Close()
	var ms MemStats
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			prefix string
			dst    *uint64
		}{{"# TotalAlloc = ", &ms.TotalAlloc}, {"# Mallocs = ", &ms.Mallocs}} {
			if v, ok := strings.CutPrefix(line, f.prefix); ok {
				if *f.dst, err = strconv.ParseUint(v, 10, 64); err != nil {
					return MemStats{}, fmt.Errorf("parsing %q: %w", line, err)
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return MemStats{}, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if found != 2 {
		return MemStats{}, fmt.Errorf("%s: no MemStats block in the heap profile", base)
	}
	return ms, nil
}

// forceGC makes a server run a full garbage collection, through the gc
// parameter of its heap profile endpoint.
func forceGC(ctx context.Context, client *http.Client, base string) error {
	status, _, err := send(ctx, client, base, Wire{Method: "GET", Path: "/debug/pprof/heap?gc=1"})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return fmt.Errorf("%s: forcing a collection: %w", base, err)
	}
	return nil
}

// fetchProfile writes a server's CPU profile over the next seconds to path.
// It uses a client of its own: the load generator's one connection stays
// free for the load.
func fetchProfile(ctx context.Context, base string, seconds int, path string) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	status, body, err := send(ctx, client, base, Wire{Method: "GET", Path: fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds)})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil {
		err = os.WriteFile(path, body, 0o644)
	}
	if err != nil {
		return fmt.Errorf("%s: CPU profile: %w", base, err)
	}
	return nil
}

// hostCPU is the first line of /proc/stat: total and steal jiffies.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var c hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		if i >= 8 { // guest time is already counted in user time
			break
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two samples.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
