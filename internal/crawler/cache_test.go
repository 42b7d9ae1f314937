package crawler

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"freephish/internal/pipe"
)

// Regression: Snapshot used to build a fresh htmlx parse per probe even
// when the body was byte-identical to the last probe of the same URL. With
// the cache attached, the second probe must return the same parsed Doc.
func TestSnapshotReusesParseForUnchangedBody(t *testing.T) {
	const body = `<html><head><title>Verify PayPal</title></head>` +
		`<body><form><input type="password"></form></body></html>`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Cache = NewSnapshotCache(0)

	p1, status, err := f.Snapshot("https://victim.weebly.com/login")
	if err != nil || status != 200 {
		t.Fatalf("first snapshot: status=%d err=%v", status, err)
	}
	if p1.Doc == nil {
		t.Fatal("cached snapshot did not carry a parsed Doc")
	}
	p2, _, err := f.Snapshot("https://victim.weebly.com/login")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Doc != p1.Doc {
		t.Fatal("byte-identical re-probe re-parsed the body instead of sharing the cached Doc")
	}
	if p2.HTML != body {
		t.Fatalf("cached HTML corrupted: %q", p2.HTML)
	}
	if h, m := f.Cache.Hits(), f.Cache.Misses(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestSnapshotCacheInvalidatesOnChangedBody(t *testing.T) {
	var mu sync.Mutex
	body := "<html><body>v1</body></html>"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Cache = NewSnapshotCache(0)

	p1, _, err := f.Snapshot("https://site.wixsite.com/")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	body = "<html><body>v2 changed</body></html>"
	mu.Unlock()
	p2, _, err := f.Snapshot("https://site.wixsite.com/")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Doc == p1.Doc {
		t.Fatal("changed body must not reuse the stale parse")
	}
	if p2.HTML == p1.HTML {
		t.Fatal("changed body returned stale HTML")
	}
	if h, m := f.Cache.Hits(), f.Cache.Misses(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", h, m)
	}
}

func TestSnapshotCacheSkipsNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Cache = NewSnapshotCache(0)
	_, status, err := f.Snapshot("https://gone.weebly.com/")
	if err != nil {
		t.Fatal(err)
	}
	if status != 404 {
		t.Fatalf("status = %d, want 404", status)
	}
	if f.Cache.Len() != 0 {
		t.Fatal("takedown (404) response must not enter the snapshot cache")
	}
}

func TestSnapshotCacheEvictsLRU(t *testing.T) {
	c := NewSnapshotCache(2)
	c.Page("https://a.weebly.com/", "<html>a</html>")
	c.Page("https://b.weebly.com/", "<html>b</html>")
	c.Page("https://a.weebly.com/", "<html>a</html>") // a now most recent
	c.Page("https://c.weebly.com/", "<html>c</html>") // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Page("https://b.weebly.com/", "<html>b</html>")
	if got := c.Misses(); got != 4 {
		t.Fatalf("misses = %d, want 4 (b was evicted and re-parsed)", got)
	}
	c.Page("https://c.weebly.com/", "<html>c</html>")
	if got := c.Hits(); got != 2 {
		t.Fatalf("hits = %d, want 2 (c stayed resident across b's re-insert)", got)
	}
}

func TestSnapshotCacheConcurrentAccess(t *testing.T) {
	c := NewSnapshotCache(64)
	pipe.Do(8, 200, func(i int) {
		url := fmt.Sprintf("https://site-%d.weebly.com/", i%16)
		c.Page(url, "<html><body>page "+url+"</body></html>")
	})
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16 distinct URLs", c.Len())
	}
	if c.Hits()+c.Misses() != 200 {
		t.Fatalf("hits+misses = %d, want 200", c.Hits()+c.Misses())
	}
}
