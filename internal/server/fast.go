package server

import (
	"sync"

	"rlts/internal/core"
	"rlts/internal/obs"
)

// policyPools hands exclusive Trained clones to concurrent handlers. A
// policy reuses its forward scratch across calls and is not safe for
// concurrent use, while the hardening middleware admits up to
// MaxConcurrent requests at once — so the single-simplify route checks a
// clone out per request, and the batch route one per shard, instead of
// sharing the registered instance. Each clone flushes its run counts into
// reg, the registry the server's /metrics endpoint serves.
type policyPools struct {
	mu    sync.Mutex
	pools map[*core.Trained]*sync.Pool
	reg   *obs.Registry
}

func newPolicyPools(reg *obs.Registry) *policyPools {
	return &policyPools{pools: make(map[*core.Trained]*sync.Pool), reg: reg}
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
	c := &core.Trained{Opts: p.Opts, Policy: p.Policy.Clone()}
	c.UseRegistry(pp.reg)
	return c
}

// put returns a clone checked out with get(p).
func (pp *policyPools) put(p *core.Trained, c *core.Trained) {
	pp.mu.Lock()
	pool := pp.pools[p]
	pp.mu.Unlock()
	pool.Put(c)
}
