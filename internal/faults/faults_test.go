package faults

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"freephish/internal/obs"
	"freephish/internal/retry"
	"freephish/internal/world"
)

// okHandler answers every request with a fixed JSON body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"pad":"0123456789012345678901234567890123456789"}`)
	})
}

// classify issues one request through mw and names what the client saw.
func classify(t *testing.T, client *http.Client, method, url string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	// Pin the virtual host: fault keys include it, and the ephemeral
	// httptest port must not perturb the schedule across servers.
	req.Host = "api.test"
	resp, err := client.Do(req)
	if err != nil {
		return "transport-error"
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case rerr != nil:
		return "short-body"
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "503"
	case resp.StatusCode != http.StatusOK:
		return "other-status"
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return "malformed-json"
	}
	return "ok"
}

// TestMiddlewareDeterministic: two injectors with the same seed make
// identical fault decisions over the same request sequence; a different
// seed diverges somewhere.
func TestMiddlewareDeterministic(t *testing.T) {
	prof := Profile{ServerErrP: 0.2, ResetP: 0.1, TruncateP: 0.1, MalformP: 0.1, MaxConsecutive: 100}
	run := func(seed int64) []string {
		inj := NewInjector(seed, prof)
		srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
		defer srv.Close()
		var got []string
		for i := 0; i < 40; i++ {
			got = append(got, classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"))
		}
		return got
	}
	a, b, c := run(1), run(1), run(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: same seed diverged: %q vs %q", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 40-request schedules")
	}
	kinds := map[string]bool{}
	for _, k := range a {
		kinds[k] = true
	}
	for _, want := range []string{"503", "ok"} {
		if !kinds[want] {
			t.Fatalf("40 requests at these rates should include %q; saw %v", want, kinds)
		}
	}
}

// TestBurstCapForcesPassThrough: at ServerErrP=1 every request wants to
// fail, but the cap guarantees a healthy response after MaxConsecutive
// faults — the invariant that keeps chaos inside the retry budget.
func TestBurstCapForcesPassThrough(t *testing.T) {
	inj := NewInjector(1, Profile{ServerErrP: 1, MaxConsecutive: 2})
	srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
	defer srv.Close()
	var got []string
	for i := 0; i < 9; i++ {
		got = append(got, classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"))
	}
	want := []string{"503", "503", "ok", "503", "503", "ok", "503", "503", "ok"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d = %q, want %q (full sequence %v)", i, got[i], want[i], got)
		}
	}
}

// TestMiddlewareFaultKinds checks each kind's client-observable shape
// over a real server: reset drops the connection, truncate yields a
// short body, malform breaks JSON decoding.
func TestMiddlewareFaultKinds(t *testing.T) {
	cases := []struct {
		name string
		prof Profile
		want string
	}{
		{"reset", Profile{ResetP: 1, MaxConsecutive: 1}, "transport-error"},
		{"truncate", Profile{TruncateP: 1, MaxConsecutive: 1}, "short-body"},
		{"malform", Profile{MalformP: 1, MaxConsecutive: 1}, "malformed-json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := NewInjector(1, tc.prof)
			srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
			defer srv.Close()
			if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != tc.want {
				t.Fatalf("first GET = %q, want %q", got, tc.want)
			}
			if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "ok" {
				t.Fatalf("second GET = %q, want ok (burst cap 1)", got)
			}
			if counts := inj.Counts(); counts[tc.name] == 0 {
				t.Fatalf("counts = %v, want %s > 0", counts, tc.name)
			}
		})
	}
}

// TestCorruptionNeverHitsWrites: truncate/malform apply to GETs only, so
// a retried POST can never observe a corrupted (or double-applied) write.
func TestCorruptionNeverHitsWrites(t *testing.T) {
	inj := NewInjector(1, Profile{TruncateP: 1, MalformP: 1, MaxConsecutive: 1000})
	srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
	defer srv.Close()
	for i := 0; i < 20; i++ {
		if got := classify(t, srv.Client(), http.MethodPost, srv.URL+"/x"); got != "ok" {
			t.Fatalf("POST %d = %q, want ok (corruption must be GET-only)", i, got)
		}
	}
}

// TestBlackoutWindow: inside the window every request 503s regardless of
// the burst cap; outside it traffic is clean.
func TestBlackoutWindow(t *testing.T) {
	epoch := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	now := epoch
	inj := NewInjector(1, Profile{
		MaxConsecutive: 1,
		Blackouts:      []Blackout{{Endpoint: "api", Start: time.Hour, Length: time.Hour}},
	})
	inj.SetClock(func() time.Time { return now }, epoch)
	srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
	defer srv.Close()

	if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "ok" {
		t.Fatalf("before window = %q, want ok", got)
	}
	now = epoch.Add(90 * time.Minute)
	for i := 0; i < 4; i++ {
		if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "503" {
			t.Fatalf("inside window request %d = %q, want 503 (no burst cap)", i, got)
		}
	}
	now = epoch.Add(3 * time.Hour)
	if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "ok" {
		t.Fatalf("after window = %q, want ok", got)
	}
	if inj.Counts()[KindBlackout] != 4 {
		t.Fatalf("blackout count = %d, want 4", inj.Counts()[KindBlackout])
	}
}

// TestParseProfile covers the flag grammar.
func TestParseProfile(t *testing.T) {
	for _, off := range []string{"", "off", "none"} {
		if p, err := ParseProfile(off); err != nil || p != nil {
			t.Fatalf("ParseProfile(%q) = %v, %v; want nil, nil", off, p, err)
		}
	}
	p, err := ParseProfile("default")
	if err != nil || p == nil || p.ServerErrP != DefaultProfile().ServerErrP {
		t.Fatalf("ParseProfile(default) = %+v, %v", p, err)
	}
	p, err = ParseProfile("5xx=0.5,reset=0.1,latency=0.2,latency-max=3ms,burst=4,blackout=web:24h:6h")
	if err != nil {
		t.Fatal(err)
	}
	if p.ServerErrP != 0.5 || p.ResetP != 0.1 || p.LatencyP != 0.2 ||
		p.LatencyMax != 3*time.Millisecond || p.MaxConsecutive != 4 {
		t.Fatalf("parsed profile = %+v", p)
	}
	if len(p.Blackouts) != 1 || p.Blackouts[0] != (Blackout{Endpoint: "web", Start: 24 * time.Hour, Length: 6 * time.Hour}) {
		t.Fatalf("blackouts = %+v", p.Blackouts)
	}
	for _, bad := range []string{"nope", "5xx", "5xx=x", "blackout=web:24h", "unknown=1"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Fatalf("ParseProfile(%q) should fail", bad)
		}
	}
}

// chaosWorld wraps w's stateful ports with inj's pre-call port faults.
func chaosWorld(w world.World, inj *Injector) world.World { return world.WithFaults(w, inj.PortFault) }

// TestWrapWorldWithRetryAlwaysSucceeds is the composed invariant the
// chaos-soak study relies on, for every wrapped port method: with fault
// bursts capped below the retry budget, every port call eventually
// returns the real answer, and the inner port's side effects (here: its
// call count) fire exactly once per logical call. A journal wrapped
// outside the retry layer, as the inproc backend composes them, records
// exactly one clean port event per logical call.
func TestWrapWorldWithRetryAlwaysSucceeds(t *testing.T) {
	const calls = 50
	for _, c := range portCases {
		t.Run(c.method, func(t *testing.T) {
			stub := newPortStub()
			inj := NewInjector(3, Profile{ServerErrP: 0.5, ResetP: 0.3, MaxConsecutive: 2})
			pol := &retry.Policy{MaxAttempts: 4, Sleep: retry.NoSleep}
			j := obs.NewJournal(nil, calls)
			w := world.WithJournal(world.WithRetry(chaosWorld(stub.world(), inj), pol), j)

			for i := 0; i < calls; i++ {
				if err := c.call(w); err != nil {
					t.Fatalf("call %d: %v (retry budget must absorb capped bursts)", i, err)
				}
			}
			if n := stub.calls[c.method]; n != calls {
				t.Fatalf("inner port ran %d times, want exactly %d (faults fire pre-call)", n, calls)
			}
			if n := j.Counts()[obs.EvPort]; n != calls {
				t.Fatalf("journal recorded %d port events, want %d", n, calls)
			}
			for _, ev := range j.Tail(calls) {
				if _, failed := ev.Attrs["err"]; failed || ev.Attrs["port"] != c.key {
					t.Fatalf("port event %v: want port %q and no err marker", ev.Attrs, c.key)
				}
			}
			counts := inj.Counts()
			if counts[KindServerErr]+counts[KindReset] == 0 {
				t.Fatalf("counts = %v: no faults injected, the test proved nothing", counts)
			}
		})
	}
}

// TestPortFaultMarksTransient: injected port errors carry the transient
// marker so any policy will retry them.
func TestPortFaultMarksTransient(t *testing.T) {
	inj := NewInjector(1, Profile{ServerErrP: 1, MaxConsecutive: 1000})
	err := inj.PortFault("intel", "intel.resolve|u")
	if err == nil {
		t.Fatal("want injected error")
	}
	if !retry.IsTransient(err) {
		t.Fatalf("injected error %v must be transient", err)
	}
}

// TestHandlerTransportFaultParity: the same middleware behind the inproc
// HandlerTransport produces the same client-side failures a real server
// does — reset becomes a transport error, truncation an unexpected EOF.
func TestHandlerTransportFaultParity(t *testing.T) {
	inj := NewInjector(1, Profile{ResetP: 1, MaxConsecutive: 1})
	rt := world.NewHandlerTransport()
	rt.Handle("api.inproc", inj.Middleware("api", true, okHandler()))
	client := &http.Client{Transport: rt}

	if _, err := client.Get("http://api.inproc/x"); err == nil {
		t.Fatal("reset through HandlerTransport should be a transport error")
	}
	resp, err := client.Get("http://api.inproc/x")
	if err != nil {
		t.Fatalf("post-burst request: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "ok") {
		t.Fatalf("clean request: body=%q err=%v", body, err)
	}

	trunc := NewInjector(1, Profile{TruncateP: 1, MaxConsecutive: 1})
	rt2 := world.NewHandlerTransport()
	rt2.Handle("api.inproc", trunc.Middleware("api", true, okHandler()))
	resp, err = (&http.Client{Transport: rt2}).Get("http://api.inproc/x")
	if err != nil {
		t.Fatalf("truncated response should deliver headers: %v", err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read of truncated inproc body = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestClockSkewDeterministicAndBounded pins the clock-skew fault: for a
// fixed (seed, key) the skew sequence replays exactly, every draw stays
// within ±SkewMax, the firing rate tracks SkewP, and each firing bumps
// the counter and the Observe hook with KindClockSkew.
func TestClockSkewDeterministic(t *testing.T) {
	prof := Profile{SkewP: 0.3, SkewMax: 30 * time.Minute}
	draw := func() []time.Duration {
		inj := NewInjector(42, prof)
		out := make([]time.Duration, 200)
		for i := range out {
			out[i] = inj.ClockSkew("monitor.probe", "http://x.weebly.com")
		}
		return out
	}
	a, b := draw(), draw()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverges across replays: %v vs %v", i, a[i], b[i])
		}
		if a[i] < -prof.SkewMax || a[i] > prof.SkewMax {
			t.Fatalf("draw %d = %v exceeds ±%v", i, a[i], prof.SkewMax)
		}
		if a[i] != 0 {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Fatalf("skew fired %d/200 times at p=0.3; schedule is miscalibrated", fired)
	}

	inj := NewInjector(42, prof)
	var observed uint64
	inj.Observe = func(kind, endpoint, key string) {
		if kind != KindClockSkew {
			t.Fatalf("observed kind %q, want %q", kind, KindClockSkew)
		}
		if endpoint != "feed.gsb" || key != "http://y.weebly.com" {
			t.Fatalf("observed (%q, %q)", endpoint, key)
		}
		observed++
	}
	for i := 0; i < 200; i++ {
		inj.ClockSkew("feed.gsb", "http://y.weebly.com")
	}
	if got := inj.Counts()[KindClockSkew]; got == 0 || got != observed {
		t.Fatalf("counter = %d, observe hook fired %d times; want equal and > 0", got, observed)
	}
}

// TestClockSkewKeyedPerURL pins the shard-invariance property: the skew
// an endpoint sees for a URL depends only on (seed, URL, per-URL draw
// ordinal) — never on which other URLs were probed in between — so a
// shard probing a subset of URLs replays the same skew schedule the
// 1-shard run produced for them.
func TestClockSkewKeyedPerURL(t *testing.T) {
	prof := Profile{SkewP: 0.5, SkewMax: time.Hour}
	solo := NewInjector(7, prof)
	var want []time.Duration
	for i := 0; i < 50; i++ {
		want = append(want, solo.ClockSkew("monitor.probe", "http://a.weebly.com"))
	}
	interleaved := NewInjector(7, prof)
	var got []time.Duration
	for i := 0; i < 50; i++ {
		got = append(got, interleaved.ClockSkew("monitor.probe", "http://a.weebly.com"))
		interleaved.ClockSkew("monitor.probe", "http://other.wixsite.com")
		interleaved.ClockSkew("feed.gsb", "http://third.weebly.com")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d for a.weebly.com changed when other URLs interleaved: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestClockSkewOffByDefault pins the compatibility contract: the default
// chaos profile injects no skew (skew perturbs observation timestamps,
// which would break the chaos byte-identity gate), and a zero-probability
// profile never draws.
func TestClockSkewOffByDefault(t *testing.T) {
	if p := DefaultProfile(); p.SkewP != 0 {
		t.Fatalf("DefaultProfile().SkewP = %v, want 0 (skew is opt-in)", p.SkewP)
	}
	inj := NewInjector(1, DefaultProfile())
	for i := 0; i < 100; i++ {
		if d := inj.ClockSkew("monitor.probe", "http://x.weebly.com"); d != 0 {
			t.Fatalf("default profile skewed by %v", d)
		}
	}
	if inj.Counts()[KindClockSkew] != 0 {
		t.Fatalf("default profile counted %d skews", inj.Counts()[KindClockSkew])
	}
}

// TestDNSFailTransportAbort pins the client-observable shape of a DNS
// resolution failure: the request dies at the transport with no response
// bytes (indistinguishable from a reset), the burst cap forces the next
// request through, and the firing is counted and reported to Observe.
func TestDNSFailTransportAbort(t *testing.T) {
	inj := NewInjector(1, Profile{DNSFailP: 1, MaxConsecutive: 1})
	var observed uint64
	inj.Observe = func(kind, endpoint, key string) {
		if kind != KindDNSFail {
			t.Fatalf("observed kind %q, want %q", kind, KindDNSFail)
		}
		if endpoint != "api" {
			t.Fatalf("observed endpoint %q, want api", endpoint)
		}
		observed++
	}
	srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
	defer srv.Close()
	if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "transport-error" {
		t.Fatalf("first GET = %q, want transport-error (dnsfail aborts pre-response)", got)
	}
	if got := classify(t, srv.Client(), http.MethodGet, srv.URL+"/x"); got != "ok" {
		t.Fatalf("second GET = %q, want ok (burst cap 1)", got)
	}
	if got := inj.Counts()[KindDNSFail]; got == 0 || got != observed {
		t.Fatalf("counter = %d, observe hook fired %d times; want equal and > 0", got, observed)
	}
}

// TestDNSFailStreamIndependent pins the schedule-isolation property:
// turning DNSFailP on must not re-deal any other fault's decisions,
// because dnsfail draws from its own "dns|"-prefixed stream. At every
// ordinal where dnsfail did not fire, the injected kind matches the
// dnsfail-free profile's kind exactly.
func TestDNSFailStreamIndependent(t *testing.T) {
	base := Profile{ServerErrP: 0.2, ResetP: 0.1, TruncateP: 0.1, MaxConsecutive: 1 << 30}
	withDNS := base
	withDNS.DNSFailP = 0.3
	a := NewInjector(9, base)
	b := NewInjector(9, withDNS)
	dnsFired := 0
	for n := 0; n < 200; n++ {
		ka, _ := a.decide("api", "api|GET|h|/u", true, false)
		kb, _ := b.decide("api", "api|GET|h|/u", true, false)
		if kb == KindDNSFail {
			dnsFired++
			continue
		}
		if ka != kb {
			t.Fatalf("ordinal %d: kind %q with dnsfail enabled vs %q without — schedules re-dealt", n, kb, ka)
		}
	}
	if dnsFired < 30 || dnsFired > 90 {
		t.Fatalf("dnsfail fired %d/200 times at p=0.3; schedule is miscalibrated", dnsFired)
	}
}

// TestDNSFailSharesBurstCap: dnsfail joins the key's shared fault streak,
// so even with every fault class at probability 1 the joint burst never
// exceeds MaxConsecutive — the invariant that keeps the retry budget
// sufficient and dnsfail-bearing chaos byte-transparent.
func TestDNSFailSharesBurstCap(t *testing.T) {
	inj := NewInjector(1, Profile{DNSFailP: 1, ServerErrP: 1, MaxConsecutive: 2})
	srv := httptest.NewServer(inj.Middleware("api", true, okHandler()))
	defer srv.Close()
	// Fresh connection per request: on a reused keep-alive connection the
	// Go transport silently retries an aborted GET, which would consume an
	// extra decide ordinal and blur the streak being pinned here.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	var got []string
	for i := 0; i < 9; i++ {
		got = append(got, classify(t, client, http.MethodGet, srv.URL+"/x"))
	}
	want := []string{"transport-error", "transport-error", "ok",
		"transport-error", "transport-error", "ok",
		"transport-error", "transport-error", "ok"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d = %q, want %q (full sequence %v)", i, got[i], want[i], got)
		}
	}
}

// TestDNSFailKeyedPerKey pins shard invariance: a key's dnsfail schedule
// depends only on (seed, key, per-key ordinal), never on interleaved
// traffic for other keys — so a shard probing a subset of URLs replays
// exactly the resolution failures the 1-shard run dealt them.
func TestDNSFailKeyedPerKey(t *testing.T) {
	prof := Profile{DNSFailP: 0.5, MaxConsecutive: 1 << 30}
	solo := NewInjector(7, prof)
	var want []string
	for i := 0; i < 50; i++ {
		k, _ := solo.decide("intel", "port|http://a.weebly.com", false, false)
		want = append(want, k)
	}
	interleaved := NewInjector(7, prof)
	for i := 0; i < 50; i++ {
		k, _ := interleaved.decide("intel", "port|http://a.weebly.com", false, false)
		interleaved.decide("intel", "port|http://other.wixsite.com", false, false)
		interleaved.decide("web", "port|http://third.weebly.com", false, false)
		if k != want[i] {
			t.Fatalf("draw %d for a.weebly.com changed when other keys interleaved: %q vs %q", i, k, want[i])
		}
	}
}

// TestDNSFailOffByDefault: the default chaos profile injects no
// resolution failures (dnsfail is opt-in like skew and blackouts), and
// the flag grammar round-trips the key.
func TestDNSFailOffByDefault(t *testing.T) {
	if p := DefaultProfile(); p.DNSFailP != 0 {
		t.Fatalf("DefaultProfile().DNSFailP = %v, want 0 (dnsfail is opt-in)", p.DNSFailP)
	}
	p, err := ParseProfile("dnsfail=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.DNSFailP != 0.05 {
		t.Fatalf("parsed DNSFailP = %v, want 0.05", p.DNSFailP)
	}
	if _, err := ParseProfile("dnsfail=x"); err == nil {
		t.Fatal(`ParseProfile("dnsfail=x") should fail`)
	}
}

// TestParseProfileSkew covers the skew flag grammar: explicit keys, the
// 30-minute default magnitude, and rejection of malformed values.
func TestParseProfileSkew(t *testing.T) {
	p, err := ParseProfile("skew=0.2,skew-max=10m")
	if err != nil {
		t.Fatal(err)
	}
	if p.SkewP != 0.2 || p.SkewMax != 10*time.Minute {
		t.Fatalf("parsed profile = %+v", p)
	}
	p, err = ParseProfile("skew=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.SkewMax != 30*time.Minute {
		t.Fatalf("skew without skew-max defaulted to %v, want 30m", p.SkewMax)
	}
	for _, bad := range []string{"skew=x", "skew-max=x"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Fatalf("ParseProfile(%q) should fail", bad)
		}
	}
}
