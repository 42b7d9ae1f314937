package crawler

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
)

// handlerTransport serves each request with the handler for its URL
// host, in process.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no handler for %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// pageFaults fails the next n page attempts of one poller: a 503 on the
// HTTP path, a transient error from the page source on the direct one.
type pageFaults struct{ n int }

func (f *pageFaults) fail() bool {
	if f.n > 0 {
		f.n--
		return true
	}
	return false
}

// pagePair polls the same networks through the HTTP page path and the
// in-process PageSource, with the same limiter budget and the same
// injected failures on each.
type pagePair struct {
	now                   time.Time
	nets                  map[threat.Platform]*social.Network
	http, direct          *Poller
	httpFaults, dirFaults pageFaults
}

func newPagePair() *pagePair {
	pp := &pagePair{now: epoch, nets: map[threat.Platform]*social.Network{}}
	clock := func() time.Time { return pp.now }
	hosts := handlerTransport{}
	endpoints := map[threat.Platform]string{}
	platforms := map[threat.Platform]string{}
	for _, plat := range []threat.Platform{threat.Facebook, threat.Twitter} {
		nw := social.NewNetwork(plat, clock)
		pp.nets[plat] = nw
		host := string(plat) + ".test"
		hosts[host] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if pp.httpFaults.fail() {
				http.Error(w, "injected", http.StatusServiceUnavailable)
				return
			}
			nw.ServeHTTP(w, r)
		})
		endpoints[plat] = "http://" + host
		platforms[plat] = ""
	}
	pp.http = NewPoller(endpoints, &http.Client{Transport: hosts}, epoch)
	pp.direct = NewPoller(platforms, nil, epoch)
	pp.direct.Pages = func(plat threat.Platform, since time.Time, offset int) ([]*social.Post, bool, error) {
		if pp.dirFaults.fail() {
			return nil, false, retry.Transient(errors.New("injected"))
		}
		page, more := pp.nets[plat].Page(since, offset)
		return page, more, nil
	}
	for _, p := range []*Poller{pp.http, pp.direct} {
		p.Retry = &retry.Policy{MaxAttempts: 2, Sleep: retry.NoSleep}
		p.Limiter = NewRateLimiter(8, 1.0/600, clock)
	}
	return pp
}

// publish posts text on plat at the current time plus d.
func (pp *pagePair) publish(plat threat.Platform, text string, d time.Duration) {
	pp.nets[plat].Publish(text, pp.now.Add(d))
}

// fail arms n injected failures on both paths.
func (pp *pagePair) fail(n int) {
	pp.httpFaults.n, pp.dirFaults.n = n, n
}

// poll advances the clock by d, polls both paths, and requires identical
// output, counters and cursor state.
func (pp *pagePair) poll(t *testing.T, d time.Duration) []StreamedURL {
	t.Helper()
	pp.now = pp.now.Add(d)
	want, werr := pp.http.Poll(pp.now)
	got, gerr := pp.direct.Poll(pp.now)
	if werr != nil || gerr != nil {
		t.Fatalf("poll at %v: http err %v, direct err %v", pp.now, werr, gerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("poll at %v: direct path streamed\n%+v\nHTTP path streamed\n%+v", pp.now, got, want)
	}
	if pp.direct.Failed != pp.http.Failed || pp.direct.Skipped != pp.http.Skipped {
		t.Fatalf("poll at %v: direct Failed/Skipped = %d/%d, HTTP = %d/%d", pp.now,
			pp.direct.Failed, pp.direct.Skipped, pp.http.Failed, pp.http.Skipped)
	}
	if ds, hs := pp.direct.State(), pp.http.State(); !reflect.DeepEqual(ds, hs) {
		t.Fatalf("poll at %v: direct state %+v, HTTP state %+v", pp.now, ds, hs)
	}
	return got
}

// TestPageSourcesAgree: the in-process page source and the HTTP page path
// stream the same URLs and keep the same counters and cursors, through
// offset paging, sub-second cursors, markup characters, invalid UTF-8,
// failed and rate-limited cycles.
func TestPageSourcesAgree(t *testing.T) {
	pp := newPagePair()

	// A burst over one page: offset paging.
	for i := 0; i < social.MaxPageSize+31; i++ {
		pp.publish(threat.Twitter, fmt.Sprintf("burst %d https://b%d.weebly.com/", i, i), time.Duration(i)*time.Millisecond)
	}
	if got := pp.poll(t, 10*time.Minute); len(got) != social.MaxPageSize+31 {
		t.Fatalf("burst streamed %d URLs, want %d", len(got), social.MaxPageSize+31)
	}

	// Sub-second posts and cursors: the since window is whole seconds on
	// both paths, so a post in the cursor's second is re-read and deduped.
	pp.publish(threat.Facebook, "subsecond https://s.wixsite.com/", 250*time.Millisecond)
	pp.poll(t, 10*time.Minute+300*time.Millisecond)
	pp.publish(threat.Facebook, "same second https://t.wixsite.com/", -100*time.Millisecond)
	pp.poll(t, 10*time.Minute+999*time.Millisecond)

	// Markup and invalid UTF-8 in the text: JSON escapes <>& and rewrites
	// each invalid byte as U+FFFD.
	pp.publish(threat.Twitter, "<b>win</b> & more https://m.weebly.com/?a=1&b=<2>", time.Second)
	pp.publish(threat.Twitter, "bad \xff\xfe bytes \xe2\x82 https://u.weebly.com/\xc0", 2*time.Second)
	got := pp.poll(t, 10*time.Minute)
	if len(got) != 2 || got[1].Text != "bad �� bytes �� https://u.weebly.com/�" {
		t.Fatalf("markup and invalid UTF-8 streamed %+v", got)
	}

	// A failed cycle (both attempts of the first page fail) freezes the
	// cursor on both paths; the next cycle catches up.
	pp.publish(threat.Facebook, "during outage https://o.wixsite.com/", time.Second)
	pp.fail(2)
	pp.poll(t, 10*time.Minute)
	if pp.http.Failed != 1 {
		t.Fatalf("Failed = %d after an injected outage, want 1", pp.http.Failed)
	}
	if got := pp.poll(t, 10*time.Minute); len(got) != 1 {
		t.Fatalf("catch-up streamed %d URLs, want 1", len(got))
	}

	// Drain the limiter: both paths skip the same platforms.
	for i := 0; i < 4; i++ {
		pp.poll(t, time.Second)
	}
	if pp.http.Skipped == 0 {
		t.Fatal("the limiter skipped no platform")
	}
}

// FuzzPageSourcesAgree drives both page paths through an arbitrary
// script of posts, bursts, removals, injected failures and polls.
func FuzzPageSourcesAgree(f *testing.F) {
	f.Add([]byte{0, 10, 2, 3, 1, 5, 2, 40, 3, 2, 2, 7, 2, 9}, "<a href=x>&amp;</a>")
	f.Add([]byte{1, 5, 1, 4, 2, 1, 4, 0, 2, 255}, "\xff\xe2\x82 é https://z.weebly.com/\xc0")
	f.Add([]byte{0, 1, 2, 0, 0, 2, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0}, "x")
	f.Fuzz(func(t *testing.T, script []byte, text string) {
		if len(script) > 64 || len(text) > 512 {
			return
		}
		pp := newPagePair()
		posts := 0
		next := func(i *int) byte {
			*i++
			if *i < len(script) {
				return script[*i]
			}
			return 0
		}
		for i := 0; i < len(script); i++ {
			op := script[i]
			arg := next(&i)
			plat := threat.Twitter
			if op/5%2 == 1 {
				plat = threat.Facebook
			}
			switch op % 5 {
			case 0: // one post, up to a minute ahead with a sub-second part
				pp.publish(plat, fmt.Sprintf("%s https://p%d.weebly.com/", text, posts), time.Duration(arg)*237*time.Millisecond)
				posts++
			case 1: // a burst of up to MaxPageSize+55 posts
				for j := 0; j < int(arg)%(social.MaxPageSize+56); j++ {
					pp.publish(plat, fmt.Sprintf("%s %d https://q%d.wixsite.com/", text, j, posts), time.Duration(j)*time.Millisecond)
					posts++
				}
			case 2: // poll after up to ~21 minutes, sub-second parts included
				pp.poll(t, time.Duration(arg)*5*time.Second+time.Duration(arg)*3*time.Millisecond)
			case 3: // fail the next few page attempts on both paths
				pp.fail(int(arg) % 4)
			case 4: // remove the newest post, effective up to 4 minutes ago
				if nw := pp.nets[plat]; nw.Len() > 0 {
					nw.Lookup(fmt.Sprintf("%s-%d", plat, nw.Len())).Remove(pp.now.Add(-time.Duration(arg) * time.Second))
				}
			}
		}
		pp.poll(t, 10*time.Minute)
	})
}

// TestEmptyDirectPollAllocatesNothing: most poll cycles find no post, so
// an empty cycle through a PageSource, retry policy and observer
// allocates nothing.
func TestEmptyDirectPollAllocatesNothing(t *testing.T) {
	pp := newPagePair()
	pp.direct.Limiter = nil
	pp.direct.Observe = func(threat.Platform, int, int, int, bool) {}
	pp.publish(threat.Twitter, "warm https://w.weebly.com/", 0)
	pp.poll(t, 10*time.Minute)
	allocs := testing.AllocsPerRun(100, func() {
		pp.now = pp.now.Add(10 * time.Minute)
		if _, err := pp.direct.Poll(pp.now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an empty direct poll cycle allocates %v times, want 0", allocs)
	}
}

// TestBusyDirectPollAddsNoPageAllocation: the poller reads an in-process
// page's posts where the source holds them, with no per-page copy. The
// source re-delivers two full pages of posts the poller has already seen,
// so a cycle pages through every post yet streams nothing, and any
// allocation left is the poll path's own.
func TestBusyDirectPollAddsNoPageAllocation(t *testing.T) {
	nw := social.NewNetwork(threat.Twitter, func() time.Time { return epoch })
	for i := 0; i < 2*social.MaxPageSize; i++ {
		nw.Publish(fmt.Sprintf("post %d https://p%d.weebly.com/", i, i), epoch)
	}
	all := nw.Since(time.Time{})
	p := NewPoller(map[threat.Platform]string{threat.Twitter: ""}, nil, epoch)
	p.Pages = func(_ threat.Platform, _ time.Time, offset int) ([]*social.Post, bool, error) {
		end := min(offset+social.MaxPageSize, len(all))
		return all[offset:end], end < len(all), nil
	}
	now := epoch
	if urls, err := p.Poll(now); err != nil || len(urls) != len(all) {
		t.Fatalf("first poll streamed %d URLs (err %v), want %d", len(urls), err, len(all))
	}
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(10 * time.Minute)
		if urls, err := p.Poll(now); err != nil || len(urls) != 0 {
			t.Fatalf("re-delivery streamed %d URLs (err %v), want 0", len(urls), err)
		}
	})
	if allocs != 0 {
		t.Errorf("a poll of 2 re-delivered pages allocates %v times, want 0", allocs)
	}
}
