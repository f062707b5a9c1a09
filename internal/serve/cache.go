package serve

import (
	"container/list"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

// respCache is the generation-keyed response cache behind /query and
// /figures: rendered response bodies keyed by (parsed request, store
// generation), bounded by an LRU, with single-flight deduplication
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
	byKey    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits, misses, coalesced, evictions, stale *obs.Counter
}

// cacheKey is what a cached response answers: a figure by its name, or a
// /query by everything that decides its body (parseQuery), at the store
// generation the request arrived at. It is a comparable value that points
// into the request instead of holding a string of its own, so a hit finds
// its entry with one map lookup and allocates nothing.
type cacheKey struct {
	gen    uint64
	figure string // a /figures key; "" on a /query

	// A /query's field list is its catalogue positions in order, each
	// plus one so that a zero ends the list, and moreFields, a byte per
	// position, holds those past the array. start and end are UTC instants
	// with no monotonic reading, so == compares instants. limit is the
	// one the scan runs with, MaxRows applied. spelling is the request's
	// field list when a name in it is not in its catalogue spelling, which
	// the header line then echoes, and "" when every name is.
	fields                   [16]uint8
	moreFields, spelling     string
	start, end               time.Time
	state                    slurm.State
	byState, steps           bool
	user, account, partition string
	limit                    int
}

// detach returns k with strings of its own. A parsed key's filter values,
// field spelling and a figure's name are substrings of the request line,
// which may be padded with parameters the parser ignores; a key the cache
// keeps must not hold that whole string alive. moreFields is already built
// fresh by the parse. Only a miss that stores its entry pays for the
// copies.
func (k cacheKey) detach() cacheKey {
	k.figure, k.spelling = strings.Clone(k.figure), strings.Clone(k.spelling)
	k.user, k.account, k.partition = strings.Clone(k.user), strings.Clone(k.account), strings.Clone(k.partition)
	return k
}

// entry is one cached rendered response with its response headers,
// rendered once (newEntry).
type entry struct {
	key    cacheKey
	body   []byte
	rows   int    // -1 when not a row-count response
	gen    uint64 // store generation the body shows
	bypass bool   // too large to keep: share with concurrent callers, skip LRU

	// Header values, each its own one-element slice (nil rowsHdr: no
	// X-Rows): a response's header map takes them as they are, and one
	// that adds a value reallocates rather than write past them.
	ctypeHdr, genHdr, rowsHdr []string
}

// newEntry builds the entry for body, its three header values cut from one
// array with full-slice expressions.
func newEntry(body []byte, ctype string, rows int, gen uint64) *entry {
	hdr := []string{ctype, strconv.FormatUint(gen, 10), ""}
	e := &entry{body: body, rows: rows, gen: gen, ctypeHdr: hdr[0:1:1], genHdr: hdr[1:2:2]}
	if rows >= 0 {
		hdr[2] = strconv.Itoa(rows)
		e.rowsHdr = hdr[2:3:3]
	}
	return e
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

// outcomeHdr holds each outcome's X-Cache value, as entry holds its own.
var outcomeHdr = map[cacheOutcome][]string{
	cacheHit:       {string(cacheHit)},
	cacheMiss:      {string(cacheMiss)},
	cacheCoalesced: {string(cacheCoalesced)},
}

func newRespCache(max int, m *obs.Registry) *respCache {
	if max <= 0 {
		max = 1024
	}
	return &respCache{
		max:       max,
		lru:       list.New(),
		byKey:     map[cacheKey]*list.Element{},
		inflight:  map[cacheKey]*flight{},
		hits:      m.Counter("serve_cache_hits_total"),
		misses:    m.Counter("serve_cache_misses_total"),
		coalesced: m.Counter("serve_cache_coalesced_total"),
		evictions: m.Counter("serve_cache_evictions_total"),
		stale:     m.Counter("serve_cache_stale_total"),
	}
}

// do returns the cached entry for key at store generation gen — the
// request's, which do writes into the key — computing it at most once no
// matter how many identical requests arrive concurrently: the first caller runs compute, later
// callers block until it finishes and share its result (errors included —
// a failed computation is not cached, so the next request retries). A
// context error is the exception: the first caller's request was
// cancelled, not the computation refused, so a waiter runs it again under
// its own request instead of failing with someone else's hang-up. The
// first request at a newer generation empties the cache, and a
// computation that finishes for an older generation than the newest is
// shared with its waiters but not kept; both count as stale.
func (c *respCache) do(gen uint64, key cacheKey, compute func() (*entry, error)) (*entry, cacheOutcome, error) {
	key.gen = gen
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
	if f.err == nil && !f.ent.bypass {
		key = key.detach()
	}

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
