package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"rlts/internal/obs"
)

// Default hardening parameters; see Config.
const (
	DefaultMaxConcurrent  = 64
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxPoints      = 1_000_000
	DefaultDrainTimeout   = 30 * time.Second
	DefaultStreamTTL      = 5 * time.Minute
	DefaultMaxStreams     = 1024
	DefaultStreamShards   = 8
	DefaultMaxHotSessions = 4096
	// DefaultBatchWidth is how many trajectories one shard of a POST
	// /v1/simplify/batch request simplifies, one after another on one
	// policy clone; see batch.go.
	DefaultBatchWidth = 64
)

// Config tunes the service's protective middleware. The zero value means
// "use the defaults"; explicit negatives disable individual limits.
type Config struct {
	// MaxConcurrent caps simultaneously-processed requests; excess
	// requests are shed immediately with 429 rather than queued (a loaded
	// simplification server is CPU-bound, so queueing only grows latency).
	// 0 means DefaultMaxConcurrent, negative disables the cap.
	MaxConcurrent int
	// RequestTimeout is the per-request deadline applied to the request
	// context; handlers that honor the context (the policy simplification
	// path does) abort with 504 when it passes. 0 means
	// DefaultRequestTimeout, negative disables.
	RequestTimeout time.Duration
	// MaxPoints caps the trajectory size a single request may carry.
	// 0 means DefaultMaxPoints, negative disables.
	MaxPoints int
	// ErrorLog receives one line per recovered panic (default os.Stderr).
	ErrorLog io.Writer
	// Logger, when non-nil, receives structured request logs: one Debug
	// record per request (route, status, latency, request id) and Warn/
	// Error records for sheds, deadline expiries and recovered panics,
	// each carrying the request id for cross-referencing.
	Logger *slog.Logger
	// Metrics is the registry GET /metrics serves. Everything the serving
	// path records lands here: the middleware's request/shed/panic/deadline
	// series, the streaming session manager's lifecycle series, per-session
	// streamer point counters, the rlts_simplify_error distributions, and
	// the simplify run, step and policy-fallback counters of the policy
	// clones the handlers run (core.Trained.UseRegistry). Library use
	// outside the server (the rlts_train_* family, simplify runs of
	// Trained values no server owns) registers in obs.Default(), which is
	// also the default here when nil — so with a nil Metrics one scrape
	// sees everything.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (bypassing
	// shedding and deadlines, like /healthz). Off by default: profiling
	// endpoints leak operational detail and cost CPU, so exposure is an
	// explicit operator decision.
	EnablePprof bool
	// StreamTTL evicts streaming sessions idle for longer than this.
	// 0 means DefaultStreamTTL, negative disables eviction.
	StreamTTL time.Duration
	// MaxStreams caps concurrently open streaming sessions; creates beyond
	// it are rejected with 429. 0 means DefaultMaxStreams, negative
	// disables the cap.
	MaxStreams int
	// StreamShards is the number of lock domains the streaming session
	// store is split across: session ids hash onto shards, each with its
	// own mutex and LRU accounting, so concurrent session traffic (and a
	// disk write during a spill) contends on 1/N of the keyspace. 0 means
	// DefaultStreamShards, negative means 1.
	StreamShards int
	// SpillDir enables session durability: cold sessions are serialized
	// to this directory (one CRC-sealed file per session, written
	// atomically), rehydrated bit-identically on their next touch, and
	// recovered across restarts. Empty disables spilling — sessions are
	// memory-only, the pre-durability behavior. See DESIGN.md §14.
	SpillDir string
	// MaxHotSessions bounds the sessions held in memory when SpillDir is
	// set; beyond it the least-recently-active sessions spill to disk.
	// 0 means DefaultMaxHotSessions, negative disables the bound (spill
	// happens only on DrainStreams). Ignored without SpillDir.
	MaxHotSessions int
	// SpillWrite, when non-nil, replaces the atomic file write the spill
	// path uses (storage.WriteFileAtomic). It exists for fault-injection
	// tests — a failing SpillWrite must leave sessions live in memory —
	// and for embedders with their own durable medium.
	SpillWrite func(path string, data []byte) error
	// FleetRebalanceEvery, when positive, rebalances every fleet's
	// allocation on this cadence (see fleet.go) so member budgets track
	// the streams as they grow. Zero or negative disables the janitor;
	// rebalances then happen only on POST /v1/fleet/{id}/rebalance.
	// Off by default because a rebalance mutates member budgets — an
	// operator opts into automatic mutation explicitly.
	FleetRebalanceEvery time.Duration
}

func (c Config) normalized() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = DefaultMaxPoints
	}
	if c.ErrorLog == nil {
		c.ErrorLog = os.Stderr
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.StreamTTL == 0 {
		c.StreamTTL = DefaultStreamTTL
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	switch {
	case c.StreamShards == 0:
		c.StreamShards = DefaultStreamShards
	case c.StreamShards < 0:
		c.StreamShards = 1
	}
	if c.MaxHotSessions == 0 {
		c.MaxHotSessions = DefaultMaxHotSessions
	}
	return c
}

// bypassesHardening reports whether a path skips load shedding and the
// per-request deadline: liveness probes and scrapes must answer while the
// service is saturated, and pprof profiles legitimately run for longer
// than any request deadline.
func bypassesHardening(path string) bool {
	return path == "/healthz" || path == "/metrics" ||
		len(path) >= len("/debug/pprof") && path[:len("/debug/pprof")] == "/debug/pprof"
}

// Harden wraps h with the service's protective and observability
// middleware, outermost first:
//
//   - request identity: X-Request-ID is taken from the request (generated
//     when absent or unusable), echoed on the response and attached to
//     every metric-adjacent log record;
//   - instrumentation: per-route request counters and latency histograms,
//     an in-flight gauge, shed/panic/deadline counters — all in
//     cfg.Metrics — plus structured request logs on cfg.Logger;
//   - panic recovery: a panicking handler becomes a 500 JSON error and a
//     log line, never a dead process (http.ErrAbortHandler is re-raised,
//     as the net/http contract requires);
//   - load shedding: at most MaxConcurrent requests run at once, the rest
//     get an immediate 429 with a Retry-After hint;
//   - deadline: the request context expires after RequestTimeout. 504
//     responses carry Retry-After too (enforced by the status recorder,
//     whichever layer writes the 504).
//
// GET /healthz, GET /metrics and /debug/pprof bypass shedding and
// deadline so probes, scrapes and profiles still answer while the service
// is saturated. Harden is exported separately from Server so tests (and
// other services) can wrap arbitrary handlers.
func Harden(h http.Handler, cfg Config) http.Handler {
	cfg = cfg.normalized()
	met := newMetricsSet(cfg.Metrics)
	inner := h
	var sem chan struct{}
	if cfg.MaxConcurrent > 0 {
		sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", rid)

		route := routeLabel(r.URL.Path)
		sr := &statusRecorder{ResponseWriter: w}
		w = sr
		start := time.Now()
		defer func() {
			rec := recover()
			if rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				met.panics.Inc()
				fmt.Fprintf(cfg.ErrorLog, "server: panic serving %s %s: %v\n", r.Method, r.URL.Path, rec)
				if cfg.Logger != nil {
					cfg.Logger.Error("panic recovered", "request_id", rid,
						"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec))
				}
				httpError(w, http.StatusInternalServerError, codeInternal, "internal server error")
			}
			status := sr.Status()
			if status == http.StatusGatewayTimeout {
				met.deadlines.Inc()
			}
			elapsed := time.Since(start).Seconds()
			met.request(route, fmt.Sprintf("%d", status)).Inc()
			met.latency(route).Observe(elapsed)
			if cfg.Logger != nil {
				level := slog.LevelDebug
				if status >= 500 {
					level = slog.LevelWarn
				}
				cfg.Logger.Log(r.Context(), level, "request",
					"request_id", rid, "method", r.Method, "route", route,
					"status", status, "seconds", elapsed)
			}
		}()
		if bypassesHardening(r.URL.Path) {
			inner.ServeHTTP(w, r)
			return
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				met.shed.Inc()
				if cfg.Logger != nil {
					cfg.Logger.Warn("request shed", "request_id", rid,
						"method", r.Method, "route", route)
				}
				httpError(w, http.StatusTooManyRequests, codeOverloaded, "server at capacity, retry later")
				return
			}
		}
		met.inflight.Inc()
		defer met.inflight.Dec()
		if cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		inner.ServeHTTP(w, r)
	})
}

// Serve runs srv until ctx is canceled (typically by SIGTERM via
// signal.NotifyContext), then shuts down gracefully: the listener closes,
// in-flight requests get up to drain to finish, and only then does Serve
// return. A nil error means a clean start-to-drain lifecycle.
func Serve(ctx context.Context, srv *http.Server, drain time.Duration) error {
	addr := srv.Addr
	if addr == "" {
		addr = ":http"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, srv, ln, drain)
}

// ServeListener is Serve on an existing listener (which it takes ownership
// of). Split out so tests can bind port 0 first and learn the address.
func ServeListener(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(sctx)
		<-errc // Serve has returned ErrServerClosed by now
		if err != nil {
			return fmt.Errorf("server: drain incomplete after %v: %w", drain, err)
		}
		return nil
	}
}
