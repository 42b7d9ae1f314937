package crawler

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"freephish/internal/features"
	"freephish/internal/htmlx"
)

// SnapshotCache is a bounded LRU of parsed page snapshots, keyed by URL and
// validated by a content hash of the body. It serves freephish-proxy,
// which re-checks the pages users revisit: without the cache each repeat
// visit re-parses a byte-identical body. A hit returns the previously
// parsed DOM; a changed body (different hash) replaces the entry. The
// cache never suppresses the HTTP fetch itself — a verdict must see the
// live page — it only removes the redundant parse behind it. Studies do
// not use it: their fetch stage parses each page once, and the §4.4
// monitor's re-probes read only the status.
//
// SnapshotCache is safe for concurrent use by the pipeline's probe workers.
type SnapshotCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

type snapEntry struct {
	url  string
	hash uint64
	page features.Page // HTML plus the shared parsed Doc
}

// DefaultSnapshotCacheSize bounds the cache when callers pass 0.
const DefaultSnapshotCacheSize = 2048

// NewSnapshotCache returns a cache holding at most capacity entries
// (DefaultSnapshotCacheSize when capacity <= 0).
func NewSnapshotCache(capacity int) *SnapshotCache {
	if capacity <= 0 {
		capacity = DefaultSnapshotCacheSize
	}
	return &SnapshotCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// hashBody fingerprints a snapshot body for change detection.
func hashBody(body string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(body))
	return h.Sum64()
}

// Page resolves a fetched body against the cache. An unchanged body (same
// URL, same hash) returns the cached page with its shared parsed Doc; a
// new or changed body is parsed once, stored, and returned. The returned
// Page always carries a non-nil Doc.
func (c *SnapshotCache) Page(url, body string) features.Page {
	h := hashBody(body)
	c.mu.Lock()
	if el, ok := c.entries[url]; ok {
		e := el.Value.(*snapEntry)
		if e.hash == h && len(e.page.HTML) == len(body) {
			c.lru.MoveToFront(el)
			page := e.page
			c.mu.Unlock()
			c.hits.Add(1)
			return page
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)

	// Parse outside the lock: it is the expensive step the cache exists to
	// dedupe, and a rare duplicate parse under contention beats serializing
	// every worker behind one parser.
	page := features.Page{URL: url, HTML: body, Doc: htmlx.Parse(body)}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[url]; ok {
		e := el.Value.(*snapEntry)
		if e.hash == h && len(e.page.HTML) == len(body) {
			// Another worker stored the same body first; share its parse.
			c.lru.MoveToFront(el)
			return e.page
		}
		e.hash = h
		e.page = page
		c.lru.MoveToFront(el)
		return page
	}
	c.entries[url] = c.lru.PushFront(&snapEntry{url: url, hash: h, page: page})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*snapEntry).url)
	}
	return page
}

// Hits reports how many lookups reused a cached parse.
func (c *SnapshotCache) Hits() uint64 { return c.hits.Load() }

// Misses reports how many lookups had to parse.
func (c *SnapshotCache) Misses() uint64 { return c.misses.Load() }

// Len reports the number of cached snapshots.
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
