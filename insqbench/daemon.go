package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	insqclient "repro/internal/client"
)

// daemon is one insqd child process and the control-plane client the
// benchmark uses for set-up and scraping (never for measured traffic).
type daemon struct {
	cmd        *exec.Cmd
	exited     chan struct{} // closed once cmd.Wait returns
	stderr     *os.File
	base       string // http://127.0.0.1:port
	ingestAddr string // raw TCP ingest listener
	dataDir    string
	ctl        *http.Client       // /readyz and /metrics
	cl         *insqclient.Client // sessions and /v1/stats
}

// freePorts asks the kernel for n unused loopback ports. Every listener
// stays open until all are chosen, or the kernel may hand out one port
// twice.
func freePorts(n int) ([]int, error) {
	var ports []int
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDaemon execs insqd with the workload's flags and waits until
// /readyz answers 200. runDir holds its stderr log and WAL directory.
func startDaemon(bin, runDir string, w *workload, seed int64) (*daemon, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	httpPort, ingestPort := ports[0], ports[1]
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{
		base:       fmt.Sprintf("http://127.0.0.1:%d", httpPort),
		ingestAddr: fmt.Sprintf("127.0.0.1:%d", ingestPort),
		exited:     make(chan struct{}),
		ctl:        &http.Client{Timeout: 10 * time.Second},
	}
	// The daemon runs with -stats-ttl 0, so every stats read is fresh.
	d.cl = insqclient.New(d.base, insqclient.Options{Retries: -1, HTTPClient: d.ctl})
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-ingest-addr", d.ingestAddr,
		"-seed", strconv.FormatInt(seed, 10),
	}
	args = append(args, w.flags()...)
	if w.wal {
		d.dataDir = filepath.Join(runDir, "wal")
		if err := os.RemoveAll(d.dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", d.dataDir)
	}
	d.stderr, err = os.Create(filepath.Join(runDir, "insqd.log"))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.stderr
	d.cmd.Stderr = d.stderr
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The daemon must not outlive the benchmark, even one that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.stderr.Close()
		return nil, fmt.Errorf("exec insqd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := d.ctl.Get(d.base + "/readyz")
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("insqd exited during start-up: %s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("insqd not ready after 60s: %s", d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines of the daemon's log for error reports.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.stderr.Name())
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], " | ")
}

// stop shuts the daemon down (SIGTERM, then SIGKILL after 10s), waits
// for it to exit and removes its WAL directory.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.stderr.Close()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

func (d *daemon) metrics() (promSnapshot, error) {
	r, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", r.StatusCode)
	}
	return parseProm(r.Body)
}

// cpuTime is the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("cpu: malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("cpu: short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rssPeakMB is the daemon's VmHWM from /proc/<pid>/status.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("rss: no VmHWM in /proc status")
}

// stealTicks is the machine-wide CPU steal time from /proc/stat: time
// the hypervisor ran something else while this machine's CPUs had work.
func stealTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("steal: malformed /proc/stat")
	}
	return strconv.ParseUint(f[8], 10, 64)
}
