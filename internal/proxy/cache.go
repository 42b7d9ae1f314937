package proxy

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultVerdictCacheSize bounds the live checker's verdict cache. A
// verdict is one bool per normalized URL, so the bound exists to keep a
// proxy fed with millions of distinct URLs from growing without limit,
// not to save much memory per entry.
const DefaultVerdictCacheSize = 4096

// verdictCache is a bounded LRU of classification verdicts keyed by
// normalized URL. It is the proxy's only cache: a hit answers a revisit
// with no fetch and no parse.
// Safe for concurrent use; hit/miss/eviction counters are atomic so the
// ops endpoint can read them without taking the lock.
type verdictCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are *verdictEntry
	byKey map[string]*list.Element

	// ttl, when > 0, expires entries older than ttl at lookup time; now
	// supplies the clock (nil means time.Now). A deterministic deployment
	// drives now from a simulation clock, so expiry is reproducible.
	ttl time.Duration
	now func() time.Time

	hits, misses, evictions, expired atomic.Uint64
}

type verdictEntry struct {
	key     string
	verdict bool
	at      time.Time // when the verdict was stored (zero with ttl off)
}

// newVerdictCache returns a cache bounded to capacity entries;
// capacity <= 0 means DefaultVerdictCacheSize.
func newVerdictCache(capacity int) *verdictCache {
	if capacity <= 0 {
		capacity = DefaultVerdictCacheSize
	}
	return &verdictCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// setTTL configures lookup-time expiry; ttl <= 0 disables it. now may be
// nil (wall clock).
func (c *verdictCache) setTTL(ttl time.Duration, now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ttl = ttl
	c.now = now
}

// clock resolves the configured time source. Caller holds c.mu.
func (c *verdictCache) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// get returns the cached verdict and whether it was present, refreshing
// the entry's recency on a hit. A stale entry (older than the TTL) is
// removed and counted as both expired and a miss — the caller re-derives
// the verdict exactly as for a URL never seen.
func (c *verdictCache) get(key string) (verdict, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return false, false
	}
	ent := el.Value.(*verdictEntry)
	if c.ttl > 0 && c.clock().Sub(ent.at) >= c.ttl {
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.expired.Add(1)
		c.misses.Add(1)
		return false, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(el)
	return ent.verdict, true
}

// put stores a verdict, evicting the least-recently-used entries beyond
// the bound.
func (c *verdictCache) put(key string, verdict bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var at time.Time
	if c.ttl > 0 {
		at = c.clock()
	}
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*verdictEntry)
		ent.verdict = verdict
		ent.at = at
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&verdictEntry{key: key, verdict: verdict, at: at})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*verdictEntry).key)
		c.evictions.Add(1)
	}
}

// len reports the resident entry count.
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
