package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"slurmsight/internal/obs"
)

// respCache is the generation-keyed response cache behind /query and
// /figures: rendered response bodies keyed by (canonical request,
// store generation), bounded by an LRU, with single-flight deduplication
// of identical in-flight computations. Because the store generation is
// part of every key, an append invalidates the whole cached view at
// once — the first request per (key, new generation) recomputes, and
// every concurrent duplicate waits for that one computation. And because
// the generation only goes up, no entry for an older one can be asked
// for again once a request arrives at a newer one: the cache drops them
// all then, instead of letting them age out of the LRU.
type respCache struct {
	mu       sync.Mutex
	max      int
	gen      uint64     // the newest generation a request has arrived at
	lru      *list.List // *entry, most recent at front
	byKey    map[string]*list.Element
	inflight map[string]*flight

	hits, misses, coalesced, evictions, stale *obs.Counter
}

// entry is one cached rendered response.
type entry struct {
	key    string
	body   []byte
	ctype  string
	rows   int    // -1 when not a row-count response
	gen    uint64 // store generation the body shows
	bypass bool   // too large to keep: share with concurrent callers, skip LRU
}

// flight is one in-progress computation that followers wait on.
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

// cacheOutcome reports how a lookup was satisfied, for the X-Cache
// response header.
type cacheOutcome string

const (
	cacheHit       cacheOutcome = "hit"
	cacheMiss      cacheOutcome = "miss"
	cacheCoalesced cacheOutcome = "coalesced"
)

func newRespCache(max int, m *obs.Registry) *respCache {
	if max <= 0 {
		max = 1024
	}
	return &respCache{
		max:       max,
		lru:       list.New(),
		byKey:     map[string]*list.Element{},
		inflight:  map[string]*flight{},
		hits:      m.Counter("serve_cache_hits_total"),
		misses:    m.Counter("serve_cache_misses_total"),
		coalesced: m.Counter("serve_cache_coalesced_total"),
		evictions: m.Counter("serve_cache_evictions_total"),
		stale:     m.Counter("serve_cache_stale_total"),
	}
}

// do returns the cached entry for key, a request that arrived at store
// generation gen, computing it at most once no matter how many identical
// requests arrive concurrently: the first caller runs compute, later
// callers block until it finishes and share its result (errors included —
// a failed computation is not cached, so the next request retries). A
// context error is the exception: the first caller's request was
// cancelled, not the computation refused, so a waiter runs it again under
// its own request instead of failing with someone else's hang-up. The
// first request at a newer generation empties the cache, and a
// computation that finishes for an older generation than the newest is
// shared with its waiters but not kept; both count as stale.
func (c *respCache) do(gen uint64, key string, compute func() (*entry, error)) (*entry, cacheOutcome, error) {
	c.mu.Lock()
	if gen > c.gen {
		c.gen = gen
		c.stale.Add(int64(c.lru.Len()))
		c.lru.Init()
		clear(c.byKey)
	}
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		c.hits.Inc()
		return e, cacheHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		<-f.done
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			return c.do(gen, key, compute)
		}
		return f.ent, cacheCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	c.misses.Inc()
	f.ent, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && gen < c.gen {
		c.stale.Inc()
	} else if f.err == nil && !f.ent.bypass {
		f.ent.key = key
		c.byKey[key] = c.lru.PushFront(f.ent)
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.byKey, oldest.Value.(*entry).key)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.ent, cacheMiss, f.err
}

// len returns the number of cached entries (for tests and /healthz).
func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
