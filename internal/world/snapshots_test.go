package world

import (
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/fwb"
	"freephish/internal/retry"
)

// Bodies around the snapshot cap: one just over it, and one whose
// injected half-body is exactly the cap, where the capped read stops
// before the break.
var (
	overCapHTML   = "<html>" + strings.Repeat("x", crawler.MaxSnapshotBytes)
	doubleCapHTML = strings.Repeat("y", 2*crawler.MaxSnapshotBytes+1)
)

// snapPair fetches the same host through the HTTP path (HandlerTransport
// over Host.ServeHTTP behind the chaos middleware) and through the direct
// source (Snapshots over Host.Serve with Injector.Get), each with its own
// injector of the same seed and profile, and the same retry budget.
type snapPair struct {
	now          time.Time
	host         *fwb.Host
	sites        []*fwb.Site
	http, direct *crawler.Fetcher
	injs         [2]*faults.Injector // http, direct
}

// snapTargets are the URLs the pair fetches: hosted FWB, path-based and
// self-hosted sites (one cloaked), the oversized bodies, unknown hosts,
// and variants in case, port, trailing slash and query.
var snapTargets = []string{
	"https://bakery.weebly.com/",
	"https://BAKERY.Weebly.com",
	"https://bakery.weebly.com:8443/?ref=x",
	"https://sites.google.com/view/my-attack",
	"https://sites.google.com/view/my-attack/",
	"https://Sites.Google.com/view/my-attack",
	"https://sites.google.com/view/My-Attack",
	"https://secure-login.xyz/",
	"https://secure-login.xyz/account",
	"https://big.weebly.com/",
	"https://bigger.weebly.com/",
	"https://missing.weebly.com/",
	"https://unknown.example/path%20x/",
	"https://bakery.weebly.com/a%2Fb?q=%zz",
}

// snapUAs are the user agents fetched with: a browser, crawlers, and none
// (the fetcher's default).
var snapUAs = []string{crawler.ChromiumUA, "curl/8.0", "Googlebot/2.1", ""}

func newSnapPair(prof *faults.Profile, attempts int) *snapPair {
	sp := &snapPair{now: epoch}
	clock := func() time.Time { return sp.now }
	sp.host = fwb.NewHost(clock)
	weebly, _ := fwb.ByKey("weebly")
	gs, _ := fwb.ByKey("googlesites")
	for _, s := range []*fwb.Site{
		{URL: weebly.SiteURL("bakery"), Service: weebly, HTML: "<html><body>Fresh bread</body></html>", Kind: fwb.KindBenign},
		{URL: gs.SiteURL("my-attack"), Service: gs, HTML: `<form><input type="password"></form>`, Kind: fwb.KindPhishing},
		{URL: "https://secure-login.xyz/", HTML: `<form><input type="email"></form>`, Kind: fwb.KindSelfHostPhish, CloakUA: true},
		{URL: weebly.SiteURL("big"), Service: weebly, HTML: overCapHTML, Kind: fwb.KindBenign},
		{URL: weebly.SiteURL("bigger"), Service: weebly, HTML: doubleCapHTML, Kind: fwb.KindBenign},
		{URL: weebly.SiteURL("tiny"), Service: weebly, HTML: "x", Kind: fwb.KindBenign},
	} {
		s.Created = epoch
		if err := sp.host.Publish(s); err != nil {
			panic(err)
		}
		sp.sites = append(sp.sites, s)
	}
	rt := NewHandlerTransport()
	var web http.Handler = sp.host
	var get func(endpoint, host, requestURI string, serve func() (int, string)) (int, string, error)
	if prof != nil {
		for i := range sp.injs {
			sp.injs[i] = faults.NewInjector(11, *prof)
			sp.injs[i].SetClock(clock, epoch)
			sp.injs[i].SetSleep(func(time.Duration) {})
		}
		web = sp.injs[0].Middleware("web", false, web)
		get = sp.injs[1].Get
	}
	rt.Handle("web.inproc", web)
	sp.http = crawler.NewFetcher("http://web.inproc")
	sp.http.Client = &http.Client{Transport: rt}
	sp.direct = crawler.NewFetcher("")
	sp.direct.Source = Snapshots(sp.host, get)
	for _, f := range []*crawler.Fetcher{sp.http, sp.direct} {
		f.Retry = &retry.Policy{MaxAttempts: attempts, Sleep: retry.NoSleep}
	}
	return sp
}

// snapOutcome is what one fetch returns, with its error reduced to its
// class.
type snapOutcome struct {
	status, attempts int
	body             string
	class            string
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "short read"
	case retry.IsTransient(err):
		return "transport"
	}
	return "other: " + err.Error()
}

func fetchOutcome(f *crawler.Fetcher, url, ua string) snapOutcome {
	var attempts int
	f.Observe = func(_, n int, _ time.Duration, _ error) { attempts = n }
	f.UserAgent = ua
	page, status, err := f.Snapshot(url)
	if err != nil {
		// The fetcher wraps the last attempt's error; unwrap to its cause.
		err = errors.Unwrap(err)
	}
	return snapOutcome{status: status, attempts: attempts, body: page.HTML, class: errClass(err)}
}

// fetch fetches url with ua on both paths and requires the same outcome.
func (sp *snapPair) fetch(t *testing.T, url, ua string) snapOutcome {
	t.Helper()
	want := fetchOutcome(sp.http, url, ua)
	got := fetchOutcome(sp.direct, url, ua)
	if got != want {
		trim := func(o snapOutcome) snapOutcome {
			if len(o.body) > 80 {
				o.body = o.body[:80] + "…"
			}
			return o
		}
		t.Fatalf("GET %s (ua %q) at %v: direct %+v, HTTP %+v", url, ua, sp.now, trim(got), trim(want))
	}
	return got
}

// checkCounts requires both injectors to have drawn the same faults.
func (sp *snapPair) checkCounts(t *testing.T) {
	t.Helper()
	if sp.injs[0] == nil {
		return
	}
	if h, d := sp.injs[0].Counts(), sp.injs[1].Counts(); !reflect.DeepEqual(h, d) {
		t.Fatalf("fault counts: HTTP %v, direct %v", h, d)
	}
}

// TestSnapshotSourcesAgree: the direct source and the HTTP path answer
// the same for hosted, path-based, cloaked, taken-down, unknown and
// oversized sites, in every host spelling and user agent.
func TestSnapshotSourcesAgree(t *testing.T) {
	sp := newSnapPair(nil, 1)
	want := map[string]struct {
		status int
		body   string
	}{
		"https://BAKERY.Weebly.com":                {200, "<html><body>Fresh bread</body></html>"},
		"https://sites.google.com/view/my-attack/": {200, `<form><input type="password"></form>`},
		"https://sites.google.com/view/My-Attack":  {404, "404 page not found\n"},
		"https://unknown.example/path%20x/":        {404, "404 page not found\n"},
		"https://big.weebly.com/":                  {200, overCapHTML[:crawler.MaxSnapshotBytes]},
	}
	for _, url := range snapTargets {
		for _, ua := range snapUAs {
			got := sp.fetch(t, url, ua)
			if w, ok := want[url]; ok && (got.status != w.status || got.body != w.body) {
				t.Fatalf("GET %s = %d %.40q, want %d %.40q", url, got.status, got.body, w.status, w.body)
			}
		}
	}
	if got := sp.fetch(t, "https://secure-login.xyz/", "curl/8.0"); !strings.Contains(got.body, "Under construction") {
		t.Fatalf("a cloaked site served a bot %.60q, want its decoy", got.body)
	}
	if got := sp.fetch(t, "https://secure-login.xyz/", crawler.ChromiumUA); !strings.Contains(got.body, "email") {
		t.Fatalf("a cloaked site served a browser %.60q, want the attack", got.body)
	}
	// Taken down an hour from now: up until then, gone after.
	sp.sites[0].TakeDown(epoch.Add(time.Hour), "weebly")
	if got := sp.fetch(t, "https://bakery.weebly.com/", ""); got.status != 200 {
		t.Fatalf("before its takedown instant the site answered %d", got.status)
	}
	sp.now = epoch.Add(time.Hour)
	if got := sp.fetch(t, "https://bakery.weebly.com/", ""); got.status != http.StatusGone {
		t.Fatalf("at its takedown instant the site answered %d, want 410", got.status)
	}
}

// TestSnapshotSourcesAgreeUnderChaos: with each path behind an injector
// of the same seed, every fault class and a web blackout reach both
// paths alike — same draws, same answers, same counts — whether each
// fault ends its fetch (one attempt) or is retried away (three).
func TestSnapshotSourcesAgreeUnderChaos(t *testing.T) {
	for _, attempts := range []int{1, 3} {
		classes := snapChaosRun(t, attempts)
		want := []string{"ok", "503"}
		if attempts == 1 {
			want = append(want, "transport", "short read")
		}
		for _, class := range want {
			if classes[class] == 0 {
				t.Errorf("%d attempts: no fetch ended %s (%v)", attempts, class, classes)
			}
		}
	}
}

// snapChaosRun fetches every target in six rounds 25 minutes apart under
// snapChaosProfile and returns how many fetches ended in each class.
func snapChaosRun(t *testing.T, attempts int) map[string]int {
	prof := snapChaosProfile()
	sp := newSnapPair(&prof, attempts)
	classes := map[string]int{}
	for round := 0; round < 6; round++ {
		for _, url := range append(snapTargets, "https://tiny.weebly.com/") {
			got := sp.fetch(t, url, snapUAs[round%len(snapUAs)])
			classes[got.class]++
			if got.status == http.StatusServiceUnavailable {
				classes["503"]++
			}
		}
		sp.now = sp.now.Add(25 * time.Minute) // round 3 falls in the blackout
	}
	sp.checkCounts(t)
	counts := sp.injs[0].Counts()
	for _, kind := range []string{faults.KindServerErr, faults.KindReset, faults.KindTruncate, faults.KindDNSFail, faults.KindBlackout} {
		if counts[kind] == 0 {
			t.Errorf("no %s fault fired (counts %v); the test does not cover it", kind, counts)
		}
	}
	return classes
}

// snapChaosProfile fires every GET fault class often, and blacks the web
// out for half an hour, starting an hour in.
func snapChaosProfile() faults.Profile {
	return faults.Profile{
		ServerErrP: 0.15, ResetP: 0.1, TruncateP: 0.25, DNSFailP: 0.1, MaxConsecutive: 2,
		Blackouts: []faults.Blackout{{Endpoint: "web", Start: time.Hour, Length: 30 * time.Minute}},
	}
}

// FuzzSnapshotSourcesAgree drives both snapshot paths through an
// arbitrary script of fetches, clock steps and takedowns, with chaos on
// or off, and requires the same status, body and error class from each
// fetch and the same fault counts at the end.
func FuzzSnapshotSourcesAgree(f *testing.F) {
	f.Add(false, uint8(0), []byte{0, 0, 1, 1, 2, 7, 3, 2, 230, 140, 0, 0, 210, 90, 0, 1, 9, 0, 12, 1})
	f.Add(true, uint8(0), []byte{0, 0, 8, 2, 9, 3, 10, 1, 205, 60, 0, 0, 6, 0, 0, 0, 11, 1, 13, 1})
	f.Add(true, uint8(2), []byte{4, 0, 4, 1, 7, 2, 9, 3, 215, 65, 4, 0, 4, 1, 232, 100, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, chaos bool, attempts uint8, script []byte) {
		if len(script) > 64 {
			return
		}
		var prof *faults.Profile
		if chaos {
			p := snapChaosProfile()
			prof = &p
		}
		sp := newSnapPair(prof, 1+int(attempts)%3)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch {
			case op < 200: // fetch one target with one user agent
				url := snapTargets[int(op)%len(snapTargets)]
				if op%7 == 6 {
					url = "https://tiny.weebly.com/"
				}
				sp.fetch(t, url, snapUAs[int(arg)%len(snapUAs)])
			case op < 230: // step the clock up to ~4 hours
				sp.now = sp.now.Add(time.Duration(arg) * time.Minute)
			default: // take a site down, up to ~2 hours either side of now
				site := sp.sites[int(op)%len(sp.sites)]
				site.TakeDown(sp.now.Add(time.Duration(int(arg)-128)*time.Minute), "fuzz")
			}
		}
		sp.checkCounts(t)
	})
}
