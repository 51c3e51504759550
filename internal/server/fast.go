package server

import (
	"sync"

	"rlts/internal/core"
)

// policyPools hands exclusive Trained clones to concurrent handlers. A
// policy reuses its forward scratch across calls and is not safe for
// concurrent use, while the hardening middleware admits up to
// MaxConcurrent requests at once — so the single-simplify route checks a
// clone out per request, and the batch route one per shard, instead of
// sharing the registered instance.
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
