package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// cacheEntry is one cached response: everything needed to replay it to
// another client. Entries are immutable once inserted; concurrent
// readers share the body slice.
type cacheEntry struct {
	status      int
	contentType string
	body        []byte
	// noStore marks a fill whose result must be returned to its waiters
	// but never inserted: the session was replaced or its generation
	// moved while the fill ran, so the rendered body may reflect either
	// snapshot and cannot be replayed under its key.
	noStore bool
}

func (e *cacheEntry) size(key string) int {
	// Key + body + a fixed overhead guess for the list/map bookkeeping.
	return len(key) + len(e.body) + 128
}

// CacheStats is a point-in-time snapshot of the response cache,
// served by /debug/stats.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Bypass    int64 `json:"bypass"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int   `json:"bytes"`
	MaxBytes  int   `json:"max_bytes"`
}

// responseCache is a bytes-bounded LRU of rendered responses keyed by
// normalized query parameters, with single-flight fills: when N
// identical queries arrive together, one runs the Engine call and the
// rest wait for its entry. The same hot-query economics as the
// Engine's stage memos, one level up — a repeated aggregate query
// costs one build and N-1 replays (the Szépkúti response-cache
// motivation in PAPERS.md).
//
// An entry never expires: its key names the query and, for answers
// that read the whole interval sequence, the generation, and intervals
// only ever arrive at the end of the sequence, so the key fixes the
// answer. A cached answer therefore outlives an Engine outage. Only a
// replaced session empties the cache (reset).
type responseCache struct {
	mu       sync.Mutex
	maxBytes int
	bytes    int
	entries  map[string]*list.Element // value: *lruItem
	order    *list.List               // front = most recently used
	inflight map[string]*inflightFill

	hits, misses, bypass, evictions int64
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

// inflightFill is the rendezvous between one filler and its waiters.
// The filler stores its outcome before closing ch, so waiters can
// share a successful result even when it was not cacheable (non-200,
// or larger than the whole budget) — single-flight must not depend on
// residency.
type inflightFill struct {
	ch  chan struct{}
	e   *cacheEntry
	err error
}

// newResponseCache returns a cache bounded to maxBytes. Non-positive
// maxBytes disables caching entirely: Do degrades to calling fill,
// with no single-flight (the bypass path).
func newResponseCache(maxBytes int) *responseCache {
	return &responseCache{
		maxBytes: maxBytes,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		inflight: map[string]*inflightFill{},
	}
}

// cacheState labels what the cache did for one request, for access
// logs and the X-Cache response header.
type cacheState string

const (
	cacheHit    cacheState = "hit"
	cacheMiss   cacheState = "miss"
	cacheBypass cacheState = "bypass"
)

// Do returns the entry for key, filling it at most once across
// concurrent callers. Only 200-status entries are cached, but every
// successful fill is shared with its concurrent waiters through the
// in-flight rendezvous, so an uncacheable (non-200 or over-budget)
// response still costs one Engine call per burst. Errors are returned
// to the caller that produced them; waiters retry (the next becomes
// the filler), except after a panic, which they answer with
// errFillPanicked. A fill aborted by cancellation likewise caches
// nothing, so a later live request rebuilds — mirroring the Engine
// memo's contract.
func (c *responseCache) Do(ctx context.Context, key string, fill func(context.Context) (*cacheEntry, error)) (*cacheEntry, cacheState, error) {
	if c.maxBytes <= 0 {
		c.mu.Lock()
		c.bypass++
		c.mu.Unlock()
		e, err := fill(ctx)
		return e, cacheBypass, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return el.Value.(*lruItem).entry, cacheHit, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.ch:
				// The close happens after the outcome fields are set, so
				// reading them here is ordered. Share a successful fill
				// (resident or not) and a panic; on any other failure
				// loop and retry.
				if f.err == nil && f.e != nil {
					c.mu.Lock()
					c.hits++
					c.mu.Unlock()
					return f.e, cacheHit, nil
				}
				if f.err == errFillPanicked {
					return nil, cacheMiss, f.err
				}
				continue
			case <-ctx.Done():
				return nil, cacheMiss, ctx.Err()
			}
		}
		f := &inflightFill{ch: make(chan struct{})}
		c.inflight[key] = f
		c.misses++
		c.mu.Unlock()
		e, err := c.runFill(ctx, key, f, fill)
		return e, cacheMiss, err
	}
}

// errFillPanicked is what the waiters of a fill that panicked get.
var errFillPanicked = errors.New("server: the response fill panicked")

// runFill runs fill in key's in-flight slot f and hands its outcome to
// the waiters. A fill that panics still frees the slot and wakes its
// waiters, with errFillPanicked, before the panic goes on up to
// withOutcome: otherwise every later request for the key would wait on
// the slot until its deadline.
func (c *responseCache) runFill(ctx context.Context, key string, f *inflightFill, fill func(context.Context) (*cacheEntry, error)) (e *cacheEntry, err error) {
	err = errFillPanicked
	defer func() {
		c.mu.Lock()
		f.e, f.err = e, err
		// A fill that reset detached is still shared with its waiters,
		// but the key's slot is no longer its own and it stores nothing.
		if c.inflight[key] == f {
			delete(c.inflight, key)
			if err == nil && e.status == 200 && !e.noStore {
				c.insertLocked(key, e)
			}
		}
		c.mu.Unlock()
		close(f.ch)
	}()
	return fill(ctx)
}

// insertLocked adds the entry and evicts from the LRU tail until the
// byte budget holds. An entry larger than the whole budget is not
// cached at all (it would evict everything for one query).
//
// Only the filler that holds the key's in-flight slot inserts, and it
// took the slot when the key had no entry, so the key has none now.
func (c *responseCache) insertLocked(key string, e *cacheEntry) {
	sz := e.size(key)
	if sz > c.maxBytes {
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem{key: key, entry: e})
	c.bytes += sz
	for c.bytes > c.maxBytes {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		it := tail.Value.(*lruItem)
		c.order.Remove(tail)
		delete(c.entries, it.key)
		c.bytes -= it.entry.size(it.key)
		c.evictions++
	}
}

// reset empties the cache and detaches the fills in flight: a request
// that arrives after it starts a fill of its own instead of waiting for
// one begun before it, and a detached fill stores nothing. The
// counters are kept.
func (c *responseCache) reset() {
	c.mu.Lock()
	clear(c.entries)
	c.order.Init()
	c.bytes = 0
	c.inflight = map[string]*inflightFill{}
	c.mu.Unlock()
}

// noteBypass counts a response served around the cache (the ?trace=1
// path): the X-Cache header says bypass, so the counters must agree.
func (c *responseCache) noteBypass() {
	c.mu.Lock()
	c.bypass++
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *responseCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Bypass:    c.bypass,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}
