package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// proc is one process of the system under test (or an input tool)
// started by the harness. Its output goes to a log file in the work
// directory.
type proc struct {
	name    string
	cmd     *exec.Cmd
	api     string // base URL of its HTTP listener, if any
	logPath string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
	started time.Time
	exited  time.Time
}

// procs tracks every process the harness starts so that all of them are
// stopped and waited for, whatever path the run takes.
type procs struct {
	mu   sync.Mutex
	live []*proc
}

func (ps *procs) start(logDir, name string, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(logDir, name+".log")
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		p.exited = time.Now()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// killAll SIGKILLs every process still running and waits for each.
func (ps *procs) killAll() {
	ps.mu.Lock()
	list := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, p := range list {
		p.kill()
	}
}

// running reports whether the process has not exited yet.
func (p *proc) running() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	if p.running() {
		_ = p.cmd.Process.Signal(syscall.SIGKILL) // it may have exited meanwhile
	}
	<-p.done
}

// stop sends SIGTERM and waits for a clean exit; a process that takes
// longer than timeout is killed and reported.
func (p *proc) stop(timeout time.Duration) error {
	if p.running() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may have exited meanwhile
	}
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, timeout)
	}
	if p.waitErr != nil {
		return fmt.Errorf("%s exited uncleanly: %v (log %s)", p.name, p.waitErr, p.logPath)
	}
	return nil
}

// wait waits for the process to exit on its own.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not finish within %v", p.name, timeout)
	}
	if p.waitErr != nil {
		return fmt.Errorf("%s failed: %v (log %s)", p.name, p.waitErr, p.logPath)
	}
	return nil
}

// peakRSSMiB reads the running process's peak resident set size
// (VmHWM). It has to be read from /proc while the process lives: the
// rusage of an exited child also counts the harness's own peak from
// before the exec, which would swamp the program's.
func (p *proc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s peak RSS: %w", p.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s peak RSS %q: %w", p.name, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s peak RSS: no VmHWM in /proc status", p.name)
}

// cpuS returns the CPU time (user + system) the process has used: from
// /proc while it runs (10 ms ticks), from its rusage once it has exited.
func (p *proc) cpuS() float64 {
	if !p.running() {
		return (p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()).Seconds()
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on Linux).
const clockTicks = 100

// freeAddr returns a loopback address with a port nobody listens on,
// for a process under test to bind. The port comes from outside the
// kernel's ephemeral range: a port picked with ":0" is an ephemeral one,
// and between the probe listener closing and the process binding it, an
// outgoing connection (a follower dialling its leader, the harness's own
// clients) can take it as its source port. Successive calls hand out
// successive ports, so a run never hands out one port twice.
func freeAddr() (string, error) {
	lo, hi := ephemeralRange()
	first, last := minPort, lo-1
	if last-first < 1000 {
		first, last = hi+1, 65535
	}
	if last-first < 1000 {
		return "", fmt.Errorf("no room outside the ephemeral port range %d-%d", lo, hi)
	}
	span := uint32(last - first + 1)
	for i := 0; i < 1000; i++ {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(first+int(portCursor.Add(1)%span)))
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free port in %d-%d", first, last)
}

// minPort is the lowest port freeAddr hands out.
const minPort = 10000

// portCursor is freeAddr's position in its port range. It starts at a
// random point, so two runs on one host seldom probe the same ports.
var portCursor atomic.Uint32

func init() { portCursor.Store(rand.Uint32()) }

// ephemeralRange reads the kernel's range of source ports for outgoing
// connections, or returns Linux's default.
func ephemeralRange() (lo, hi int) {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if f := strings.Fields(string(b)); err == nil && len(f) == 2 {
		l, err1 := strconv.Atoi(f[0])
		h, err2 := strconv.Atoi(f[1])
		if err1 == nil && err2 == nil && l <= h {
			return l, h
		}
	}
	return 32768, 60999
}

// client is an HTTP client pinned to one connection per host, so the
// load generator's connection count is exactly the number of clients.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 reply into v.
func getJSON(c *http.Client, url string, v any) error {
	code, b, err := get(c, url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, b)
	}
	return json.Unmarshal(b, v)
}

// pollInterval is how often readiness and catch-up are polled; it bounds
// the resolution of setup_s and catchup_s.
const pollInterval = 2 * time.Millisecond

// until polls cond every pollInterval until it returns true, the
// process dies, or the context ends.
func until(ctx context.Context, p *proc, what string, cond func() (bool, error)) error {
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if p != nil && !p.running() {
			return fmt.Errorf("%s exited while waiting for %s (log %s)", p.name, what, p.logPath)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
		case <-time.After(pollInterval):
		}
	}
}

// waitReady waits until GET p.api+/readyz answers 200.
func waitReady(ctx context.Context, c *http.Client, p *proc) error {
	return until(ctx, p, p.name+" /readyz", func() (bool, error) {
		code, _, err := get(c, p.api+"/readyz")
		return err == nil && code == http.StatusOK, nil
	})
}

// scrapeMetrics fetches and parses base+/metrics.
func scrapeMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of the tree src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

var errStop = errors.New("stop")

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat;
// steal is time the hypervisor gave this VM's CPUs to someone else.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
