package crawler

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"freephish/internal/fwb"
	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
	"freephish/internal/webgen"
)

var epoch = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

func TestPollerExtractsNewURLs(t *testing.T) {
	now := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return now })
	fb := social.NewNetwork(threat.Facebook, func() time.Time { return now })
	twSrv := httptest.NewServer(tw)
	defer twSrv.Close()
	fbSrv := httptest.NewServer(fb)
	defer fbSrv.Close()

	tw.Publish("verify your account https://paypal-alert.weebly.com/ now", epoch.Add(time.Minute))
	fb.Publish("my new shop https://rose-bakery.wixsite.com/", epoch.Add(2*time.Minute))
	fb.Publish("no links here", epoch.Add(3*time.Minute))

	p := NewPoller(map[threat.Platform]string{
		threat.Twitter:  twSrv.URL,
		threat.Facebook: fbSrv.URL,
	}, nil, epoch)

	now = epoch.Add(10 * time.Minute)
	got, err := p.Poll(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d URLs, want 2: %+v", len(got), got)
	}
	// Second poll must not re-deliver.
	got2, err := p.Poll(now.Add(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 0 {
		t.Fatalf("re-delivered %d URLs", len(got2))
	}
	// New post arrives; only it is delivered.
	tw.Publish("another https://new-site.weebly.com/x", now.Add(15*time.Minute))
	got3, err := p.Poll(now.Add(20 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != 1 || got3[0].URL != "https://new-site.weebly.com/x" {
		t.Fatalf("incremental poll = %+v", got3)
	}
	if got3[0].Platform != threat.Twitter || got3[0].PostID == "" {
		t.Fatalf("metadata missing: %+v", got3[0])
	}
}

func TestPollerUnreachableEndpointSkipsCycle(t *testing.T) {
	p := NewPoller(map[threat.Platform]string{threat.Twitter: "http://127.0.0.1:1"}, nil, epoch)
	var failures []threat.Platform
	p.ObserveFailure = func(plat threat.Platform, err error) {
		if err == nil {
			t.Fatal("failure hook called without an error")
		}
		failures = append(failures, plat)
	}
	got, err := p.Poll(epoch.Add(10 * time.Minute))
	if err != nil {
		t.Fatalf("a failed platform poll must not error the cycle: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("unreachable endpoint streamed %d URLs", len(got))
	}
	if p.Failed != 1 || len(failures) != 1 || failures[0] != threat.Twitter {
		t.Fatalf("failed = %d, hook = %v", p.Failed, failures)
	}
}

func TestPollerFailureFreezesCursorThenCatchesUp(t *testing.T) {
	virtual := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return virtual })
	failing := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing {
			http.Error(w, "upstream overloaded", http.StatusBadGateway)
			return
		}
		tw.ServeHTTP(w, r)
	}))
	defer srv.Close()
	tw.Publish("x https://a.weebly.com/", epoch.Add(time.Minute))

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	virtual = epoch.Add(10 * time.Minute)
	if got, err := p.Poll(virtual); err != nil || len(got) != 1 {
		t.Fatalf("first poll: %v %v", got, err)
	}
	// The API starts 502ing: the cycle is skipped, the cursor stays put.
	tw.Publish("y https://b.weebly.com/", virtual.Add(time.Minute))
	failing = true
	virtual = virtual.Add(10 * time.Minute)
	got, err := p.Poll(virtual)
	if err != nil || len(got) != 0 {
		t.Fatalf("failed poll: %v %v", got, err)
	}
	if p.Failed != 1 {
		t.Fatalf("failed = %d", p.Failed)
	}
	// Recovery: the frozen cursor re-fetches the window and catches the
	// post published during the outage.
	failing = false
	got, err = p.Poll(virtual.Add(10 * time.Minute))
	if err != nil || len(got) != 1 || got[0].URL != "https://b.weebly.com/" {
		t.Fatalf("catch-up poll: %+v %v", got, err)
	}
}

func TestPollerMidPaginationFailureKeepsFetchedPosts(t *testing.T) {
	virtual := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return virtual })
	// More than one page of posts, and the API dies after the first page.
	n := social.MaxPageSize + 40
	for i := 0; i < n; i++ {
		tw.Publish(fmt.Sprintf("x https://s%d.weebly.com/", i), epoch.Add(time.Duration(i)*time.Second))
	}
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		if requests > 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		tw.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	virtual = epoch.Add(time.Hour)
	got, err := p.Poll(virtual)
	if err != nil {
		t.Fatal(err)
	}
	// Page one was genuinely observed: its URLs stream out even though the
	// cycle failed afterwards.
	if len(got) != social.MaxPageSize {
		t.Fatalf("streamed %d URLs, want the %d fetched before the failure", len(got), social.MaxPageSize)
	}
	if p.Failed != 1 {
		t.Fatalf("failed = %d", p.Failed)
	}
	// Recovery re-fetches the frozen window; only the tail is new.
	requests = -1000 // never fail again
	got, err = p.Poll(virtual.Add(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-social.MaxPageSize {
		t.Fatalf("catch-up streamed %d URLs, want %d", len(got), n-social.MaxPageSize)
	}
}

func TestPollerSeenSetStaysBounded(t *testing.T) {
	virtual := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return virtual })
	srv := httptest.NewServer(tw)
	defer srv.Close()

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	const cycles = 40
	const perCycle = 150
	total := 0
	for c := 0; c < cycles; c++ {
		for i := 0; i < perCycle; i++ {
			tw.Publish(fmt.Sprintf("x https://c%d-p%d.weebly.com/", c, i), virtual.Add(time.Duration(i)*time.Second))
		}
		virtual = virtual.Add(10 * time.Minute)
		got, err := p.Poll(virtual)
		if err != nil {
			t.Fatal(err)
		}
		// Boundary re-deliveries (the since query is inclusive) must all be
		// absorbed by the dedup set: every streamed URL is new.
		total += len(got)
		if total != (c+1)*perCycle {
			t.Fatalf("cycle %d: %d URLs total, want %d (dupes leaked)", c, total, (c+1)*perCycle)
		}
	}
	// 6000 posts went through, but the two-generation set retains at most
	// two generations of max(minSeenCap, 4×peak-cycle-volume) IDs.
	if bound := 2 * minSeenCap; p.SeenLen() > bound {
		t.Fatalf("seen set retains %d IDs after %d posts, want ≤ %d", p.SeenLen(), cycles*perCycle, bound)
	}
}

func TestSeenSetGenerations(t *testing.T) {
	s := newSeenSet()
	// Adapts capacity to recent volume, never below the floor.
	s.EndCycle(10)
	if s.cap != minSeenCap {
		t.Fatalf("cap = %d, want floor %d", s.cap, minSeenCap)
	}
	s.EndCycle(5000)
	if s.cap != 4*5000 {
		t.Fatalf("cap = %d, want %d", s.cap, 4*5000)
	}
	// Once the peak cycle leaves the window, the capacity shrinks back.
	for i := 0; i < seenCycleWindow; i++ {
		s.EndCycle(10)
	}
	if s.cap != minSeenCap {
		t.Fatalf("cap after window = %d, want %d", s.cap, minSeenCap)
	}
	// An entry survives at least cap subsequent adds, and memory is
	// bounded by two generations.
	s.Add("first")
	for i := 0; i < 5*minSeenCap; i++ {
		s.Add(fmt.Sprintf("id-%d", i))
	}
	if s.Len() > 2*minSeenCap {
		t.Fatalf("len = %d, want ≤ %d", s.Len(), 2*minSeenCap)
	}
	if s.Has("first") {
		t.Fatal("entry older than two generations must be evicted")
	}
	if !s.Has(fmt.Sprintf("id-%d", 5*minSeenCap-1)) {
		t.Fatal("fresh entry missing")
	}
}

func TestFetcherSnapshotsVirtualHosts(t *testing.T) {
	now := epoch
	host := fwb.NewHost(func() time.Time { return now })
	g := webgen.NewGenerator(3, nil, nil)
	svc, _ := fwb.ByKey("weebly")
	site := g.PhishingFWBSiteOf(svc, fwb.KindPhishing, epoch)
	if err := host.Publish(site); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(host)
	defer srv.Close()

	f := NewFetcher(srv.URL)
	page, status, err := f.Snapshot(site.URL)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if page.URL != site.URL {
		t.Fatalf("page URL = %q, want original %q", page.URL, site.URL)
	}
	if !strings.Contains(page.HTML, "password") {
		t.Fatal("snapshot HTML incomplete")
	}

	// Takedown surfaces as 410 — the analysis module's removal signal.
	site.TakeDown(epoch.Add(time.Hour), "weebly")
	now = epoch.Add(2 * time.Hour)
	_, status, err = f.Snapshot(site.URL)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGone {
		t.Fatalf("taken-down status = %d, want 410", status)
	}

	// Unknown site: 404, no error.
	_, status, err = f.Snapshot("https://missing.weebly.com/")
	if err != nil || status != http.StatusNotFound {
		t.Fatalf("missing site = %d err %v", status, err)
	}
}

func TestFetcherBadURL(t *testing.T) {
	f := NewFetcher("http://127.0.0.1:1")
	if _, _, err := f.Snapshot("http://bad url"); err == nil {
		t.Fatal("bad URL must error")
	}
}

func TestFetcherRetriesTransientFailures(t *testing.T) {
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts < 3 {
			// Kill the connection mid-response: a transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.Write([]byte("<html>recovered</html>"))
	}))
	defer srv.Close()
	f := NewFetcher(srv.URL)
	f.Retry = &retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
	page, status, err := f.Snapshot("https://flaky.weebly.com/")
	if err != nil || status != 200 {
		t.Fatalf("snapshot after retries: %v %d", err, status)
	}
	if !strings.Contains(page.HTML, "recovered") {
		t.Fatalf("body = %q", page.HTML)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestFetcherGivesUpAfterRetries(t *testing.T) {
	f := NewFetcher("http://127.0.0.1:1")
	f.Retry = &retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Multiplier: 2}
	if _, _, err := f.Snapshot("https://x.weebly.com/"); err == nil {
		t.Fatal("unreachable backend must error after retries")
	}
}

func TestFetcherSeesThroughUACloaking(t *testing.T) {
	// A cloaking self-hosted phishing site serves a decoy to bot UAs but
	// the real attack to the Chromium UA the crawler presents.
	now := epoch
	host := fwb.NewHost(func() time.Time { return now })
	site := &fwb.Site{
		URL:     "https://paypal-verify.evil-host.xyz/login/",
		HTML:    `<html><body><form><input type="password" name="p"></form></body></html>`,
		Kind:    fwb.KindSelfHostPhish,
		CloakUA: true,
		Created: epoch,
	}
	if err := host.Publish(site); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(host)
	defer srv.Close()

	// The FreePhish crawler (Chromium UA) sees the attack.
	f := NewFetcher(srv.URL)
	page, status, err := f.Snapshot(site.URL)
	if err != nil || status != 200 {
		t.Fatal(err, status)
	}
	if !strings.Contains(page.HTML, "password") {
		t.Fatalf("crawler was cloaked: %q", page.HTML)
	}

	// A naive bot UA gets the decoy.
	naive := NewFetcher(srv.URL)
	naive.UserAgent = "curl/8.0"
	page, status, err = naive.Snapshot(site.URL)
	if err != nil || status != 200 {
		t.Fatal(err, status)
	}
	if strings.Contains(page.HTML, "password") || !strings.Contains(page.HTML, "Under construction") {
		t.Fatalf("bot UA saw the attack: %q", page.HTML)
	}
}

func TestRateLimiterTokenBucket(t *testing.T) {
	now := epoch
	rl := NewRateLimiter(2, 1, func() time.Time { return now })
	if !rl.Allow() || !rl.Allow() {
		t.Fatal("full bucket must allow twice")
	}
	if rl.Allow() {
		t.Fatal("empty bucket allowed")
	}
	if w := rl.Wait(); w <= 0 || w > time.Second {
		t.Fatalf("wait = %v, want within one second", w)
	}
	// One second later, one token refilled.
	now = now.Add(time.Second)
	if !rl.Allow() {
		t.Fatal("refilled token not granted")
	}
	if rl.Allow() {
		t.Fatal("double-spent refill")
	}
	// Refill never exceeds capacity.
	now = now.Add(time.Hour)
	if got := rl.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

func TestRateLimiterZeroRefillNeverRecovers(t *testing.T) {
	now := epoch
	rl := NewRateLimiter(1, 0, func() time.Time { return now })
	rl.Allow()
	now = now.Add(24 * time.Hour)
	if rl.Allow() {
		t.Fatal("zero-refill bucket recovered")
	}
	if rl.Wait() < 365*24*time.Hour {
		t.Fatal("zero-refill wait should be effectively forever")
	}
}

func TestPollerRespectsRateLimit(t *testing.T) {
	virtual := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return virtual })
	srv := httptest.NewServer(tw)
	defer srv.Close()
	tw.Publish("x https://a.weebly.com/", epoch.Add(time.Minute))

	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	p.Limiter = NewRateLimiter(1, 0, func() time.Time { return virtual }) // one request, ever

	virtual = epoch.Add(10 * time.Minute)
	got, err := p.Poll(virtual)
	if err != nil || len(got) != 1 {
		t.Fatalf("first poll: %v %v", got, err)
	}
	// Second poll is rate-limited: skipped without error, cursor frozen.
	tw.Publish("y https://b.weebly.com/", virtual.Add(time.Minute))
	virtual = virtual.Add(10 * time.Minute)
	got, err = p.Poll(virtual)
	if err != nil || len(got) != 0 {
		t.Fatalf("limited poll: %v %v", got, err)
	}
	if p.Skipped != 1 {
		t.Fatalf("skipped = %d", p.Skipped)
	}
	// Relax the limit: the frozen cursor catches the missed post.
	p.Limiter = nil
	got, err = p.Poll(virtual.Add(10 * time.Minute))
	if err != nil || len(got) != 1 || got[0].URL != "https://b.weebly.com/" {
		t.Fatalf("catch-up poll: %+v %v", got, err)
	}
}

func TestPollerPagesThroughBursts(t *testing.T) {
	virtual := epoch
	tw := social.NewNetwork(threat.Twitter, func() time.Time { return virtual })
	srv := httptest.NewServer(tw)
	defer srv.Close()
	// A burst larger than one API page.
	n := social.MaxPageSize + 57
	for i := 0; i < n; i++ {
		tw.Publish(fmt.Sprintf("x https://s%d.weebly.com/", i), epoch.Add(time.Duration(i)*time.Second))
	}
	p := NewPoller(map[threat.Platform]string{threat.Twitter: srv.URL}, nil, epoch)
	virtual = epoch.Add(time.Hour)
	got, err := p.Poll(virtual)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("streamed %d URLs across pages, want %d", len(got), n)
	}
	seen := map[string]bool{}
	for _, u := range got {
		if seen[u.URL] {
			t.Fatalf("duplicate across pages: %s", u.URL)
		}
		seen[u.URL] = true
	}
}
