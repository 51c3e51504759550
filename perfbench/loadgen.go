package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// maxConns bounds the generator's connections to the server: nproc on the
// 2-core box the benchmark targets. The closed loops use one.
const maxConns = 2

// client sends requests over at most maxConns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into buf.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// sample is one timed operation of the measurement window.
type sample struct {
	at     time.Duration // send time, from the start of the window
	lat    time.Duration // from the send to the complete response
	lag    time.Duration // from the previous completion to this send: how late the generator ran
	ok     bool
	body   int // which of the plan's distinct bodies was sent
	points int // input points carried
}

// failure describes a failed operation for the run record.
func failure(what string, status int, err error, body []byte) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", what, err)
	}
	if len(body) > 160 {
		body = body[:160]
	}
	return fmt.Sprintf("%s: status %d: %s", what, status, bytes.TrimSpace(body))
}

// closedLoop sends the plan's bodies over one connection in whole passes
// of a fixed cycle, each operation due the moment the previous one
// completed, while another pass is expected, from the last one, to end
// within d; it makes at least one pass. Every body is so sent equally
// often, its repeats spread over the window. The first successful answer
// to each body is kept in first for checking after the window; a later
// answer passes when it is byte-identical to it. It returns the samples,
// the window from the first send to the last completion, and the
// failures.
func closedLoop(c *client, p *closedPlan, first [][]byte, d time.Duration) ([]sample, time.Duration, []string) {
	var (
		buf   bytes.Buffer
		out   []sample
		fails []string
	)
	t0 := time.Now()
	due := t0
	for {
		pass := time.Now()
		for b, body := range p.bodies {
			send := time.Now()
			status, err := c.do(http.MethodPost, p.path, body, &buf)
			done := time.Now()
			ok := err == nil && status == http.StatusOK
			if ok && first[b] == nil {
				first[b] = append([]byte(nil), buf.Bytes()...)
			}
			ok = ok && bytes.Equal(buf.Bytes(), first[b])
			if !ok {
				fails = append(fails, failure(fmt.Sprintf("body %d", b), status, err, buf.Bytes()))
			}
			out = append(out, sample{at: send.Sub(t0), lat: done.Sub(send), lag: send.Sub(due), ok: ok, body: b, points: p.points[b]})
			due = done
		}
		if due.Sub(t0)+due.Sub(pass) > d {
			return out, due.Sub(t0), fails
		}
	}
}
