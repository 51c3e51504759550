package server

import (
	"net/http"
	"sync"

	"rlts/internal/core"
)

// FastMath serving. POST /v1/simplify and POST /v1/simplify/batch accept
// ?fast=1: policy inference then runs the fused approximate kernels
// (nn.KernelFast) instead of the exact ones — same decisions on every
// adversarial family, distributions within the measured bounds of
// DESIGN.md §13, at a >1.5x kernel speedup. Every response carries a
// "mode" field ("exact" or "fast") reporting which kernels actually ran:
// heuristic baselines have no fast variant and always report "exact", as
// does a ?fast=1 request against a server built with Config.DisableFast.

const (
	modeExact = "exact"
	modeFast  = "fast"
)

// fastRequested reports whether the request opted into the FastMath
// kernels via the fast query parameter ("1" or "true").
func fastRequested(r *http.Request) bool {
	switch r.URL.Query().Get("fast") {
	case "1", "true":
		return true
	}
	return false
}

// fastPolicies builds the FastMath counterpart of a policy registry: one
// FastClone per registered policy, under the same keys. The exact
// originals are never touched — fast serving is a parallel registry, not
// a mode flag on shared state, so the exact path cannot be contaminated.
func fastPolicies(policies map[string]*core.Trained) map[string]*core.Trained {
	fast := make(map[string]*core.Trained, len(policies))
	for k, p := range policies {
		fast[k] = p.FastClone()
	}
	return fast
}

// policyPools hands exclusive Trained clones to concurrent handlers. A
// policy reuses its forward scratch across calls and is not safe for
// concurrent use, while the hardening middleware admits up to
// MaxConcurrent requests at once — so the single-simplify route checks a
// clone out per request, and the batch route one per shard, instead of
// sharing the registered instance.
// Clones inherit the source's kernel selection (rl.Policy.Clone), so the
// pool keyed by a fast registry entry stays fast.
type policyPools struct {
	mu    sync.Mutex
	pools map[*core.Trained]*sync.Pool
}

func newPolicyPools() *policyPools {
	return &policyPools{pools: make(map[*core.Trained]*sync.Pool)}
}

// get checks out an exclusive clone of p, building one on pool miss.
func (pp *policyPools) get(p *core.Trained) *core.Trained {
	pp.mu.Lock()
	pool, ok := pp.pools[p]
	if !ok {
		pool = &sync.Pool{}
		pp.pools[p] = pool
	}
	pp.mu.Unlock()
	if c, ok := pool.Get().(*core.Trained); ok {
		return c
	}
	return &core.Trained{Opts: p.Opts, Policy: p.Policy.Clone()}
}

// put returns a clone checked out with get(p).
func (pp *policyPools) put(p *core.Trained, c *core.Trained) {
	pp.mu.Lock()
	pool := pp.pools[p]
	pp.mu.Unlock()
	pool.Put(c)
}
