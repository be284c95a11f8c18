package cluster

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// CacheBudget bounds the bytes (key plus payload) of the finished entries
// one Cache keeps. 64 MiB holds about 300,000 encoded evaluation results
// (~225 B each with key), far more than the hot option sets of any served
// traffic produce, or 50-180 shard payloads (0.4-1.2 MB per profile or
// policy block at 3,000-40,000 records/core). That is small next to what
// the engines behind those entries pin, so a process's resident memory is
// set by its engine count, not by how many distinct results it has served.
const CacheBudget = 64 << 20

// Cache is a bounded singleflight cache of encoded payloads: shard results
// on workers, the coordinator's dispatch memo, and hmemd's evaluate result
// store. It differs from exec.Memo in two deliberate ways:
//
//   - Only successes are cached. A payload is a pure function of its key,
//     but producing it can fail for transient reasons (dead worker,
//     partition, drain, injected fault) — caching that error would poison
//     the key forever, so failures are shared with concurrent waiters and
//     then forgotten, letting the next requester try again.
//   - Finished entries are evicted least-recently-used once their bytes
//     exceed CacheBudget. In-flight computations are never evicted, and a
//     payload larger than the whole budget is returned but not kept. An
//     evicted key is simply recomputed by its next requester.
//
// The zero value is ready to use.
type Cache struct {
	mu       sync.Mutex
	inflight map[string]*cacheCall
	done     map[string]*list.Element // of *cacheEntry
	lru      list.List                // front = most recently used
	bytes    int64
	// budget overrides CacheBudget when positive (tests).
	budget int64

	hits, misses, evictions atomic.Uint64
}

type cacheCall struct {
	ch  chan struct{}
	val []byte
	err error
}

type cacheEntry struct {
	key string
	val []byte
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.val)) }

// Do returns the cached payload for key, computing it with fn on a miss.
// Requester semantics match exec.Memo: a caller waiting on someone else's
// in-flight computation stops waiting on ctx cancellation, but the
// computation itself runs to completion (fn must not observe ctx). If fn
// panics, waiters get an error, the key is forgotten, and the panic
// continues in the computing caller. Callers must not modify the returned
// slice: it is shared with every requester of the key.
func (c *Cache) Do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.done[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-call.ch:
			return call.val, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &cacheCall{ch: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = make(map[string]*cacheCall)
	}
	c.inflight[key] = call
	c.mu.Unlock()
	c.misses.Add(1)

	finished := false
	defer func() {
		if !finished {
			call.val, call.err = nil, fmt.Errorf("cluster: computation for %q panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if call.err == nil {
			c.store(key, call.val)
		}
		c.mu.Unlock()
		close(call.ch)
	}()
	call.val, call.err = fn()
	finished = true
	return call.val, call.err
}

// store keeps a finished payload and evicts from the cold end until the
// budget holds again. Caller holds c.mu.
func (c *Cache) store(key string, val []byte) {
	budget := c.budget
	if budget <= 0 {
		budget = CacheBudget
	}
	e := &cacheEntry{key: key, val: val}
	if e.size() > budget {
		return
	}
	if c.done == nil {
		c.done = make(map[string]*list.Element)
	}
	c.done[key] = c.lru.PushFront(e)
	c.bytes += e.size()
	for c.bytes > budget {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.done, old.key)
		c.bytes -= old.size()
		c.evictions.Add(1)
	}
}

// Peek returns the completed payload for key without computing anything —
// the peer-cache lookup path. A hit counts as a use for eviction order.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.done[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Known reports whether key has a finished or in-flight computation — that
// is, whether a Do for it would share existing work rather than start new
// work. Admission control prices such requests as free; Known leaves the
// counters and the eviction order untouched.
func (c *Cache) Known(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, done := c.done[key]
	_, running := c.inflight[key]
	return done || running
}

// Size returns the number of completed entries and their bytes (keys plus
// payloads).
func (c *Cache) Size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done), c.bytes
}

// Stats returns the hit/miss counters (a hit includes joining an in-flight
// computation).
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many finished entries the budget has pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }
