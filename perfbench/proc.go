package main

import (
	"bufio"
	"bytes"
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
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
const clockTicks = 100

// serverProc is one rlts-server process started by the benchmark.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startServer execs the server binary on a free loopback port with the
// given GOMAXPROCS, logging to server.log in dir.
func startServer(bin, dir string, procs int) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	return &serverProc{cmd: cmd, addr: addr, log: logf}, nil
}

// stop kills the server and waits until it has exited. Nothing it holds
// is needed afterwards: every run starts from a fresh spill directory.
func (s *serverProc) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// cpu returns the server's utime+stime so far.
func (s *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hwm returns the server's peak resident set (VmHWM) in bytes.
func (s *serverProc) hwm() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the unlabelled counters of GET /metrics.
func scrape(c *client) (map[string]float64, error) {
	var buf bytes.Buffer
	status, err := c.do(http.MethodGet, "/metrics", nil, &buf)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	return parseCounters(buf.Bytes()), nil
}

// parseCounters reads the unlabelled samples of a Prometheus text scrape.
func parseCounters(text []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// coldStart execs the server and retries the workload's first operation
// until it succeeds, returning the process, the time from exec to that
// first successful response, and the response. Connection refusals
// while the server starts are retried every half millisecond.
func coldStart(bin, dir string, procs int, first func(*client, *bytes.Buffer) (int, error)) (*serverProc, time.Duration, []byte, error) {
	t0 := time.Now()
	s, err := startServer(bin, dir, procs)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(s.addr)
	defer c.close()
	var buf bytes.Buffer
	for {
		status, err := first(c, &buf)
		if err == nil && status == http.StatusOK {
			return s, time.Since(t0), append([]byte(nil), buf.Bytes()...), nil
		}
		if err == nil || !errors.Is(err, syscall.ECONNREFUSED) || time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, nil, errors.New(failure("first operation", status, err, buf.Bytes()))
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// cpuTicks is the machine-wide CPU time from /proc/stat: stolen by the
// host, and all of it.
type cpuTicks struct{ steal, total int64 }

func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// share returns the stolen share of the CPU time since start.
func (t cpuTicks) share(start cpuTicks) float64 {
	if t.total == start.total {
		return 0
	}
	return float64(t.steal-start.steal) / float64(t.total-start.total)
}
