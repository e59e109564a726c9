package atlasd

import "sync"

// pooledKey is the reserved cache key for the pooled fallback bestline.
// Host IDs never contain a newline, so it cannot collide with a real
// landmark.
const pooledKey = "\npooled"

// CacheStats counts model-cache traffic since the last epoch reset.
type CacheStats struct {
	// Fits is the number of bestline fits actually executed.
	Fits int64 `json:"fits"`
	// Hits served a previously fitted model without refitting.
	Hits int64 `json:"hits"`
	// Misses found no cached model and started (or joined) a fit.
	Misses int64 `json:"misses"`
	// Coalesced is the subset of misses that joined a fit already in
	// flight instead of starting their own — the singleflight win.
	Coalesced int64 `json:"coalesced"`
}

// fitCall is one in-flight (or completed) fit that concurrent callers
// share: the first requester runs the fit, everyone else waits on done.
type fitCall struct {
	done chan struct{}
	val  ModelInfo
	err  error
}

// modelCache is the per-epoch, singleflight bestline cache. The §4.1
// server refits each landmark's delay-distance model once per epoch
// ("updates a delay-distance model for each landmark … every day");
// under concurrent clients the cache guarantees exactly one fit per
// landmark per epoch, with every concurrent requester coalescing onto
// the same computation.
type modelCache struct {
	fit func(id string) (ModelInfo, error)

	mu    sync.Mutex
	calls map[string]*fitCall
	stats CacheStats
}

func newModelCache(fit func(id string) (ModelInfo, error)) *modelCache {
	return &modelCache{fit: fit, calls: make(map[string]*fitCall)}
}

// get returns the landmark's model, fitting it at most once per epoch.
func (c *modelCache) get(id string) (ModelInfo, error) {
	c.mu.Lock()
	if call, ok := c.calls[id]; ok {
		select {
		case <-call.done:
			c.stats.Hits++
		default:
			c.stats.Misses++
			c.stats.Coalesced++
		}
		c.mu.Unlock()
		<-call.done
		return call.val, call.err
	}
	call := &fitCall{done: make(chan struct{})}
	c.calls[id] = call
	c.stats.Misses++
	c.stats.Fits++
	c.mu.Unlock()

	// The fit runs outside the lock: other landmarks fit concurrently,
	// only same-landmark requests coalesce.
	call.val, call.err = c.fit(id)
	close(call.done)
	if call.err != nil {
		// Do not cache failures across the epoch: a failed fit (e.g. a
		// transient data problem) is retried by the next requester.
		c.mu.Lock()
		if c.calls[id] == call {
			delete(c.calls, id)
		}
		c.mu.Unlock()
	}
	return call.val, call.err
}

// reset drops every cached fit, starting a new epoch. Fits in flight
// finish and are returned to their waiters, but no longer populate the
// cache.
func (c *modelCache) reset() {
	c.mu.Lock()
	c.calls = make(map[string]*fitCall)
	c.stats = CacheStats{}
	c.mu.Unlock()
}

// Stats returns a copy of the traffic counters.
func (c *modelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
