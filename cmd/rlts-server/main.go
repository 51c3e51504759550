// Command rlts-server runs the trajectory simplification HTTP service
// with the embedded pretrained policies loaded (RLTS and RLTS+ for all
// four measures) alongside every heuristic baseline.
//
//	rlts-server -addr :8080
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/simplify -d '{
//	  "algorithm": "rlts+", "measure": "SED", "ratio": 0.1,
//	  "points": [[0,0,0],[1,0,1],[2,5,2],[3,0,3],[4,0,4]]}'
//	curl -s localhost:8080/metrics          # Prometheus text format
//
// Streaming sessions (online variant only):
//
//	curl -s -X POST localhost:8080/v1/stream -d '{"measure":"SED","w":50}'
//	curl -s -X POST localhost:8080/v1/stream/ID/points -d '{"points":[[0,0,0],[1,0,1]]}'
//	curl -s localhost:8080/v1/stream/ID     # snapshot
//	curl -s -X DELETE localhost:8080/v1/stream/ID
//
// Fleets (a shared storage budget across many sessions; see DESIGN.md §15):
//
//	curl -s -X POST localhost:8080/v1/fleet -d '{"budget":500,"strategy":"error-greedy"}'
//	curl -s -X POST localhost:8080/v1/fleet/FID/attach -d '{"session":"ID"}'
//	curl -s -X POST localhost:8080/v1/fleet/FID/rebalance
//	curl -s localhost:8080/v1/fleet/FID     # allocation + per-member errors
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/obs"
	"rlts/internal/server"
	"rlts/pretrained"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxConc    = flag.Int("max-concurrent", server.DefaultMaxConcurrent, "simultaneous requests before 429 load shedding (negative = unlimited)")
		reqTO      = flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request deadline (negative = none)")
		maxPts     = flag.Int("max-points", server.DefaultMaxPoints, "largest trajectory accepted per request (negative = unlimited)")
		drain      = flag.Duration("drain-timeout", server.DefaultDrainTimeout, "how long in-flight requests may finish after SIGTERM")
		streamTTL  = flag.Duration("stream-ttl", server.DefaultStreamTTL, "evict streaming sessions idle longer than this (negative = never)")
		maxStreams = flag.Int("max-streams", server.DefaultMaxStreams, "concurrently open streaming sessions before 429 (negative = unlimited)")
		spillDir   = flag.String("spill-dir", "", "directory for durable session spill; empty = sessions are memory-only")
		maxHot     = flag.Int("max-hot-sessions", server.DefaultMaxHotSessions, "sessions kept in memory before cold ones spill to -spill-dir (negative = spill only on shutdown)")
		shards     = flag.Int("shards", server.DefaultStreamShards, "lock shards for the streaming session store")
		fleetEvery = flag.Duration("fleet-rebalance", 0, "rebalance every fleet's budget allocation on this cadence (0 = only on explicit POST .../rebalance)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		verbose    = flag.Bool("v", false, "log every request (Debug level)")
	)
	flag.Parse()
	logger := obs.CommandLogger(os.Stderr, "rlts-server", *verbose, *logJSON)

	var policies []*core.Trained
	for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
		for _, m := range rlts.Measures {
			p, err := pretrained.Load(m, v)
			if err != nil {
				logger.Error("loading pretrained policy", "variant", v, "measure", m, "err", err)
				os.Exit(1)
			}
			policies = append(policies, trainedOf(p))
		}
	}
	cfg := server.Config{
		MaxConcurrent:       *maxConc,
		RequestTimeout:      *reqTO,
		MaxPoints:           *maxPts,
		StreamTTL:           *streamTTL,
		MaxStreams:          *maxStreams,
		SpillDir:            *spillDir,
		MaxHotSessions:      *maxHot,
		StreamShards:        *shards,
		FleetRebalanceEvery: *fleetEvery,
		EnablePprof:         *pprofOn,
		Logger:              logger,
	}
	sv := server.NewWith(policies, cfg)
	defer sv.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
	}
	// SIGTERM/SIGINT stop accepting connections and drain in-flight
	// requests instead of dropping them mid-simplification.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("listening", "addr", *addr, "policies", len(policies), "pprof", *pprofOn)
	if err := server.Serve(ctx, srv, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "rlts-server: %v\n", err)
		os.Exit(1)
	}
	// The listener has drained: no request can touch a session anymore,
	// so spill them all for the next process to rehydrate.
	if *spillDir != "" {
		if err := sv.DrainStreams(); err != nil {
			logger.Error("spilling sessions on shutdown", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("drained, bye")
}

// trainedOf unwraps the public Policy into the internal representation
// the server consumes.
func trainedOf(p *rlts.Policy) *core.Trained { return p.Internal() }
