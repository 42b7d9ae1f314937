package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
)

// TestPollerNoProgressPageFailsPoll is the livelock regression test: an
// API that answers an empty page while still claiming X-More pending
// used to spin the pagination loop forever (offset never advanced). Such
// a page must fail the platform's cycle — promptly, with the cursor
// untouched so the next poll re-fetches the window.
func TestPollerNoProgressPageFailsPoll(t *testing.T) {
	var since atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since.Store(r.URL.Query().Get("since"))
		w.Header().Set("X-More", "1")
		io.WriteString(w, `[]`)
	}))
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	var failed []error
	p.ObserveFailure = func(plat threat.Platform, err error) { failed = append(failed, err) }

	done := make(chan struct{})
	var out []StreamedURL
	var err error
	go func() {
		out, err = p.Poll(epoch.Add(10 * time.Minute))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Poll livelocked on a no-progress page")
	}
	if err != nil {
		t.Fatalf("Poll: %v (a failed platform is skipped, not a cycle error)", err)
	}
	if len(out) != 0 {
		t.Fatalf("streamed %d URLs from an empty feed", len(out))
	}
	if p.Failed != 1 || len(failed) != 1 {
		t.Fatalf("Failed = %d, ObserveFailure calls = %d; want 1 and 1", p.Failed, len(failed))
	}
	first, _ := since.Load().(string)

	// The cursor did not advance: the next poll re-asks from the same
	// since mark.
	if _, err := p.Poll(epoch.Add(20 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	second, _ := since.Load().(string)
	if first != second {
		t.Fatalf("cursor advanced across a failed poll: since %q -> %q", first, second)
	}
}

// TestPollerOversizedPageFailsCycle: a well-formed page longer than
// maxPageBytes fails the platform's cycle on its first attempt, without
// retries, and leaves the cursor where it was.
func TestPollerOversizedPageFailsCycle(t *testing.T) {
	text := strings.Repeat("a", 64<<10)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "[")
		for i := 0; i*len(text) <= 2*maxPageBytes; i++ {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `{"id":"twitter-%d","platform":"twitter","text":"%s https://a%d.weebly.com/","created_at":"2022-11-01T00:01:00Z"}`, i, text, i)
		}
		io.WriteString(w, "]")
	}))
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	p.Retry = &retry.Policy{MaxAttempts: 4, Sleep: retry.NoSleep}
	var failure error
	p.ObserveFailure = func(plat threat.Platform, err error) { failure = err }
	out, err := p.Poll(epoch.Add(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || p.Failed != 1 {
		t.Fatalf("oversized page streamed %d URLs, Failed = %d; want 0 and 1", len(out), p.Failed)
	}
	var tooLarge *http.MaxBytesError
	if !errors.As(failure, &tooLarge) || tooLarge.Limit != maxPageBytes {
		t.Fatalf("failure = %v, want a %d-byte MaxBytesError", failure, maxPageBytes)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("oversized page fetched %d times, want 1 (the same page would come back)", n)
	}
	if got := p.State().Cursors[threat.Twitter]; !got.Equal(epoch) {
		t.Errorf("cursor moved to %v across a failed poll", got)
	}
}

// TestPollerNullPostFailsCycle: a page holding a JSON null where a post
// belongs is an undecodable body, retried and then failed like any other,
// never a post the poll loop dereferences.
func TestPollerNullPostFailsCycle(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.WriteString(w, `[{"id":"twitter-1","text":"x https://a.weebly.com/","created_at":"2022-11-01T00:01:00Z"},null]`)
	}))
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	p.Retry = &retry.Policy{MaxAttempts: 2, Sleep: retry.NoSleep}
	out, err := p.Poll(epoch.Add(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || p.Failed != 1 || calls.Load() != 2 {
		t.Fatalf("null post streamed %d URLs, Failed = %d, fetched %d times; want 0, 1 and 2", len(out), p.Failed, calls.Load())
	}
}

// TestPollerRetryAbsorbsFlakyAPI: with the unified policy wired, a 5xx
// burst shorter than the retry budget costs nothing — the cycle still
// delivers its posts and counts no failure.
func TestPollerRetryAbsorbsFlakyAPI(t *testing.T) {
	now := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return now })
	tw.Publish("verify https://paypal-alert.weebly.com/ now", epoch.Add(time.Minute))
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%3 != 0 {
			// Two failures, then one clean answer — repeat.
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		tw.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	p.Retry = &retry.Policy{MaxAttempts: 4, Sleep: retry.NoSleep}

	now = epoch.Add(10 * time.Minute)
	out, err := p.Poll(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].URL != "https://paypal-alert.weebly.com/" {
		t.Fatalf("poll through flaky API = %+v", out)
	}
	if p.Failed != 0 {
		t.Fatalf("Failed = %d, want 0 (retry should absorb the burst)", p.Failed)
	}
}

// TestFetcherRetries5xxUnderPolicy: a 5xx burst is retried and the
// eventual healthy body wins.
func TestFetcherRetries5xxUnderPolicy(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "<html>ok</html>")
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Retry = &retry.Policy{MaxAttempts: 4, Sleep: retry.NoSleep}
	var attempts int
	f.Observe = func(status, a int, wall time.Duration, err error) { attempts = a }

	page, status, err := f.Snapshot("http://victim.weebly.com/login")
	if err != nil || status != http.StatusOK {
		t.Fatalf("Snapshot = status %d, err %v", status, err)
	}
	if page.HTML != "<html>ok</html>" {
		t.Fatalf("HTML = %q", page.HTML)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two 503s then a 200)", attempts)
	}
}

// TestFetcherExhausted5xxReturnsStatus: when the host 5xxes through the
// whole budget, the final response is still data — the Snapshot contract
// says a non-200 status is an observation, not an error.
func TestFetcherExhausted5xxReturnsStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Retry = &retry.Policy{MaxAttempts: 3, Sleep: retry.NoSleep}
	_, status, err := f.Snapshot("http://victim.weebly.com/login")
	if err != nil {
		t.Fatalf("exhausted 5xx should not be an error: %v", err)
	}
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", status)
	}
}

// TestSnapshotContextCancelInterruptsBackoff: the old fetcher slept out
// its backoff with a bare time.Sleep no caller could interrupt. Now a
// canceled context aborts the wait immediately.
func TestSnapshotContextCancelInterruptsBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Retry = &retry.Policy{MaxAttempts: 5, BaseDelay: time.Hour} // WallSleep by default
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.SnapshotContext(ctx, "http://victim.weebly.com/login")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SnapshotContext kept sleeping after cancellation")
	}
}

// TestFetcherConcurrentSnapshots drives one shared Fetcher (with a
// shared retry policy) from many goroutines — the shape the pipeline's
// probe pool uses — so `go test -race` can vet the whole path. Every
// fifth call to a host answers 503. The schedule is kept per host, and
// each goroutine owns one host, so no snapshot meets two 503s in a row
// however the goroutines interleave.
func TestFetcherConcurrentSnapshots(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.Host]++
		fail := calls[r.Host]%5 == 0
		mu.Unlock()
		if fail {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "<html>"+r.Host+"</html>")
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL)
	f.Retry = &retry.Policy{MaxAttempts: 4, Sleep: retry.NoSleep, BreakerThreshold: 3}
	var observeMu sync.Mutex
	f.Observe = func(status, attempts int, wall time.Duration, err error) {
		observeMu.Lock()
		defer observeMu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, status, err := f.Snapshot("http://site-" + string(rune('a'+g)) + ".weebly.com/p")
				if err != nil || status != http.StatusOK {
					t.Errorf("goroutine %d: status %d err %v", g, status, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
