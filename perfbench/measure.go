package main

import (
	"bytes"
	"fmt"
	"net/http"
	"syscall"
	"time"
)

// coldStarts is how many times each run execs the server to time
// setup_s. A single start jitters by a third on the 2-core VM and
// interference only ever slows a start down, so setup_s is the lower
// quartile of the starts. The host's load drifts over seconds, so half
// the starts come before the window, the last of them serving it, and
// half after it.
const coldStarts = 21

// runResult is everything one untraced run measured.
type runResult struct {
	setup     []time.Duration
	samples   []sample
	wall      time.Duration // measurement window
	attempted int           // every operation sent: cold starts and window
	failed    int
	fails     []string
	serverCPU time.Duration // over the window
	genCPU    time.Duration // over the window
	hwm       int64         // server VmHWM at the end of the run, bytes
	before    map[string]float64
	after     map[string]float64
	q         quality
	// repairMissing counts window responses to repair requests that
	// carry no repair report (a known server gap, not a failure).
	repairMissing int
	steal         float64 // share of the machine's CPU time stolen by the host during the window
}

// note keeps the first few failure messages for the run record.
func (r *runResult) note(msg string) {
	if len(r.fails) < 8 {
		r.fails = append(r.fails, msg)
	}
}

func (r *runResult) fail(msg string) {
	r.failed++
	r.note(msg)
}

// window counts the window's operations into attempted and failed.
func (r *runResult) window(ok func(i int) bool) {
	for i := range r.samples {
		r.attempted++
		if !ok(i) {
			r.failed++
		}
	}
}

// env is the per-run environment: where the server binary is, where the
// run may write, and the GOMAXPROCS the server gets.
type env struct {
	server string
	dir    string
	procs  int
}

func generatorCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startTimed runs n cold starts, keeping the last server. Every start
// answers the same first operation; check validates each answer.
func startTimed(e env, res *runResult, n int, first func(*client, *bytes.Buffer) (int, error), check func([]byte) error) (*serverProc, error) {
	var s *serverProc
	for k := 0; k < n; k++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var resp []byte
		var err error
		s, d, resp, err = coldStart(e.server, e.dir, e.procs, first)
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", k, err)
		}
		res.setup = append(res.setup, d)
		if err := check(resp); err != nil {
			res.fail(fmt.Sprintf("cold start %d: %v", k, err))
		}
	}
	return s, nil
}

// measureWindow brackets fn, the measurement window, with the server
// CPU, generator CPU and /metrics readings.
func measureWindow(s *serverProc, c *client, res *runResult, fn func()) error {
	var err error
	if res.before, err = scrape(c); err != nil {
		return err
	}
	cpu0, err := s.cpu()
	if err != nil {
		return err
	}
	gen0, steal0 := generatorCPU(), hostSteal()
	fn()
	res.genCPU = generatorCPU() - gen0
	res.steal = hostSteal().share(steal0)
	cpu1, err := s.cpu()
	if err != nil {
		return err
	}
	res.serverCPU = cpu1 - cpu0
	if res.after, err = scrape(c); err != nil {
		return err
	}
	res.hwm, err = s.hwm()
	return err
}

// measureClosed runs a closed-loop workload: cold starts on the first
// body, the window, and the remaining cold starts. The first answer to
// every body is checked after the window; a body whose first answer fails
// its check fails every repeat.
func measureClosed(e env, p *closedPlan, seconds int) (*runResult, error) {
	res := &runResult{}
	first := make([][]byte, len(p.bodies))
	start := func(n int) (*serverProc, error) {
		return startTimed(e, res, n,
			func(c *client, buf *bytes.Buffer) (int, error) {
				return c.do(http.MethodPost, p.path, p.bodies[0], buf)
			},
			func(resp []byte) error {
				if first[0] != nil && !bytes.Equal(resp, first[0]) {
					return fmt.Errorf("answer differs from the previous start's")
				}
				first[0] = resp
				return nil
			})
	}
	s, err := start(coldStarts - coldStarts/2)
	if err != nil {
		return nil, err
	}
	c := newClient(s.addr)
	var fails []string
	err = measureWindow(s, c, res, func() {
		res.samples, res.wall, fails = closedLoop(c, p, first, time.Duration(seconds)*time.Second)
	})
	c.close()
	s.stop()
	if err != nil {
		return nil, err
	}
	if s, err = start(coldStarts / 2); err != nil {
		return nil, err
	}
	s.stop()
	for _, f := range fails {
		res.note(f)
	}
	missing := make([]bool, len(p.bodies))
	bad := make([]bool, len(p.bodies))
	for b := range p.bodies {
		if first[b] == nil {
			continue // never answered: every repeat already failed
		}
		q, miss, err := p.check(b, first[b])
		if err != nil {
			res.note(fmt.Sprintf("body %d: %v", b, err))
			bad[b] = true
			continue
		}
		res.q.add(q)
		missing[b] = miss
	}
	for i := range res.samples {
		smp := &res.samples[i]
		smp.ok = smp.ok && !bad[smp.body]
		if missing[smp.body] {
			res.repairMissing++
		}
	}
	res.window(func(i int) bool { return res.samples[i].ok })
	return res, nil
}
