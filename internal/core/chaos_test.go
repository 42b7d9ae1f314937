package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/obs"
	"freephish/internal/world"
)

// chaosRun executes one study and captures everything byte-comparable.
type chaosRun struct {
	jsonl  []byte
	stats  Stats
	obs    map[string]*Observation
	table3 string
	fp     *FreePhish
}

func runChaosStudy(t *testing.T, backend string, prof *faults.Profile) chaosRun {
	t.Helper()
	cfg := equivalenceConfig(backend)
	cfg.Faults = prof
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatalf("%s backend (faults=%v): %v", backend, prof != nil, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("%s backend (faults=%v) failed verification: %v", backend, prof != nil, err)
	}
	if len(study.Records) == 0 {
		t.Fatalf("%s backend produced no records", backend)
	}
	var buf bytes.Buffer
	if err := study.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return chaosRun{
		jsonl:  buf.Bytes(),
		stats:  f.Stats(),
		obs:    f.Observations(),
		table3: RenderTable3(study),
		fp:     f,
	}
}

// TestStudyUnderFaultsDeterministic is the chaos-soak acceptance check:
// a study run under the default fault profile — injected latency, 5xx
// bursts, connection resets, corrupted bodies, on both backends — must
// be byte-identical to the fault-free run. The unified retry layer has
// to absorb every injected failure without shifting a single record,
// counter, or monitor observation.
func TestStudyUnderFaultsDeterministic(t *testing.T) {
	clean := runChaosStudy(t, BackendInproc, nil)
	prof := faults.DefaultProfile()
	faulted := runChaosStudy(t, BackendInproc, &prof)
	prof2 := faults.DefaultProfile()
	faultedHTTP := runChaosStudy(t, BackendHTTP, &prof2)

	// The chaos actually fired — otherwise this test proves nothing.
	for name, run := range map[string]chaosRun{"inproc": faulted, "http": faultedHTTP} {
		counts := run.fp.injector.Counts()
		total := uint64(0)
		for kind, n := range counts {
			if kind != faults.KindLatency {
				total += n
			}
		}
		if total == 0 {
			t.Fatalf("%s: no failure faults injected (counts=%v)", name, counts)
		}
		t.Logf("%s faults injected: %v", name, counts)
	}

	for name, run := range map[string]chaosRun{"inproc": faulted, "http": faultedHTTP} {
		if !bytes.Equal(clean.jsonl, run.jsonl) {
			a := strings.Split(string(clean.jsonl), "\n")
			b := strings.Split(string(run.jsonl), "\n")
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("%s: study diverges under faults at record %d:\nclean:   %s\nfaulted: %s", name, i, a[i], b[i])
				}
			}
			t.Fatalf("%s: study lengths diverge: clean %d records, faulted %d", name, len(a), len(b))
		}
		if clean.stats != run.stats {
			t.Errorf("%s: stats diverge under faults:\nclean:   %+v\nfaulted: %+v", name, clean.stats, run.stats)
		}
		if !reflect.DeepEqual(clean.obs, run.obs) {
			t.Errorf("%s: monitor observations diverge under faults", name)
		}
		if clean.table3 != run.table3 {
			t.Errorf("%s: Table 3 diverges under faults", name)
		}
	}

	// The retry layer did the absorbing: retries were scheduled, nothing
	// gave up, no breaker opened.
	for name, run := range map[string]chaosRun{"inproc": faulted, "http": faultedHTTP} {
		var retries, giveUps, breaker float64
		for _, s := range run.fp.Metrics.Registry.Snapshot() {
			switch s.Name {
			case "freephish_retries_total":
				retries += s.Value
			case "freephish_retry_giveups_total":
				giveUps += s.Value
			case "freephish_breaker_transitions_total":
				breaker += s.Value
			}
		}
		if retries == 0 {
			t.Errorf("%s: no retries recorded under the default profile", name)
		}
		if giveUps != 0 || breaker != 0 {
			t.Errorf("%s: default profile must stay inside the budget; give-ups=%v breaker transitions=%v", name, giveUps, breaker)
		}
	}
}

// observedStream chains a per-endpoint failure-fault tally onto the
// injector's observer at the first poll: wireMetrics installs that
// observer after the stream is wrapped, and no pipeline worker has run
// before the first poll.
type observedStream struct {
	inner world.URLStream
	f     *FreePhish
	once  sync.Once
	mu    sync.Mutex
	fired map[string]int
}

func (s *observedStream) Poll(now time.Time) ([]crawler.StreamedURL, error) {
	s.once.Do(func() {
		inner := s.f.injector.Observe
		s.f.injector.Observe = func(kind, endpoint, key string) {
			if kind != faults.KindLatency {
				s.mu.Lock()
				s.fired[endpoint]++
				s.mu.Unlock()
			}
			inner(kind, endpoint, key)
		}
	})
	return s.inner.Poll(now)
}

// TestChaosReachesEveryPollEndpoint pins where the default profile lands
// on the streaming path: on both backends, failure faults fire on each
// platform endpoint and the poller's retries are recorded under
// poll.<platform>. TestStudyUnderFaultsDeterministic only checks that
// faults fired somewhere, so a poll path that skipped chaos would still
// pass it.
func TestChaosReachesEveryPollEndpoint(t *testing.T) {
	for _, backend := range []string{BackendInproc, BackendHTTP} {
		cfg := equivalenceConfig(backend)
		cfg.MonitorInterval = 0 // the streaming path is what is pinned
		// Four weeks of 10-minute polls give each platform thousands of
		// page requests, so every failure-fault class gets its chance.
		cfg.Duration = 28 * 24 * time.Hour
		prof := faults.DefaultProfile()
		cfg.Faults = &prof
		f := newCached(cfg)
		var st *observedStream
		f.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
			st = &observedStream{inner: s, f: f, fired: map[string]int{}}
			return st
		})
		if _, err := f.Run(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		retries := map[string]float64{}
		for _, s := range f.Metrics.Registry.Snapshot() {
			if s.Name == "freephish_retries_total" {
				retries[s.Labels["key"]] += s.Value
			}
		}
		for _, plat := range f.Sim.Platforms() {
			if st.fired[string(plat)] == 0 {
				t.Errorf("%s: no failure fault fired on the %s endpoint (fired=%v)", backend, plat, st.fired)
			}
			if key := "poll." + string(plat); retries[key] == 0 {
				t.Errorf("%s: no %s retries recorded (retries=%v)", backend, key, retries)
			}
		}
	}
}

// TestDNSFailChaosByteIdentical extends the chaos gate to the dnsfail
// class: resolution failures abort requests at the transport, share the
// per-key burst cap with the other failure faults, and draw from their
// own stream — so a dnsfail-bearing profile must be absorbed by the retry
// budget without shifting a byte, and without perturbing the other
// faults' schedules.
func TestDNSFailChaosByteIdentical(t *testing.T) {
	clean := runChaosStudy(t, BackendInproc, nil)
	prof := faults.DefaultProfile()
	prof.DNSFailP = 0.05
	faulted := runChaosStudy(t, BackendInproc, &prof)

	if n := faulted.fp.injector.Counts()[faults.KindDNSFail]; n == 0 {
		t.Fatal("no dnsfail faults injected; the test is vacuous")
	}
	if !bytes.Equal(clean.jsonl, faulted.jsonl) {
		t.Fatal("study records diverge under dnsfail chaos")
	}
	if clean.stats != faulted.stats {
		t.Fatalf("stats diverge under dnsfail chaos:\nclean:   %+v\nfaulted: %+v", clean.stats, faulted.stats)
	}
	if !reflect.DeepEqual(clean.obs, faulted.obs) {
		t.Fatal("monitor observations diverge under dnsfail chaos")
	}
	// The joint burst cap kept dnsfail inside the retry budget.
	var giveUps float64
	for _, s := range faulted.fp.Metrics.Registry.Snapshot() {
		if s.Name == "freephish_retry_giveups_total" {
			giveUps += s.Value
		}
	}
	if giveUps != 0 {
		t.Fatalf("dnsfail chaos caused %v retry give-ups; the shared cap must keep it absorbable", giveUps)
	}
}

// TestChaosRunsReproducible: two faulted runs with the same seed are
// byte-identical to each other — the injector draws from a pure hash,
// never shared RNG.
func TestChaosRunsReproducible(t *testing.T) {
	prof := faults.DefaultProfile()
	a := runChaosStudy(t, BackendInproc, &prof)
	prof2 := faults.DefaultProfile()
	b := runChaosStudy(t, BackendInproc, &prof2)
	if !bytes.Equal(a.jsonl, b.jsonl) || a.stats != b.stats {
		t.Fatal("two same-seed chaos runs diverged")
	}
	if !reflect.DeepEqual(a.fp.injector.Counts(), b.fp.injector.Counts()) {
		t.Fatalf("injection schedules diverged: %v vs %v", a.fp.injector.Counts(), b.fp.injector.Counts())
	}
}

// TestBlackoutSurvivedAndObserved: a platform blackout longer than the
// retry budget is the fault class chaos cannot hide. The study must
// survive it — failed polls, cursor frozen, catch-up afterwards — and
// the give-up/breaker machinery must leave a visible trace.
func TestBlackoutSurvivedAndObserved(t *testing.T) {
	cfg := equivalenceConfig(BackendInproc)
	cfg.MonitorInterval = 0 // keep the run focused on the streaming path
	cfg.Registry = obs.NewRegistry()
	cfg.Faults = &faults.Profile{
		MaxConsecutive: 2,
		// Twitter's API is dark for two days mid-window.
		Blackouts: []faults.Blackout{{Endpoint: "twitter", Start: 10 * 24 * time.Hour, Length: 48 * time.Hour}},
	}
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatalf("study did not survive the blackout: %v", err)
	}
	if len(study.Records) == 0 {
		t.Fatal("no records despite a bounded blackout")
	}
	if f.poller.Failed == 0 {
		t.Fatal("a two-day platform blackout should fail at least one poll")
	}
	var giveUps float64
	for _, s := range cfg.Registry.Snapshot() {
		if s.Name == "freephish_retry_giveups_total" {
			giveUps += s.Value
		}
	}
	if giveUps == 0 {
		t.Fatal("blackout polls should exhaust the retry budget and be counted")
	}
	if f.injector.Counts()[faults.KindBlackout] == 0 {
		t.Fatal("injector recorded no blackout faults")
	}
}

// TestClockSkewPerturbsObservationsDeterministically exercises the
// clock-skew fault end to end: skew is deliberately NOT absorbed by the
// retry layer (it corrupts the timestamps the monitor records, not the
// transport), so a skewed study must diverge from the clean one in its
// observation times — yet stay deterministic per seed, and stay
// shard-invariant, because skew draws are keyed per URL.
func TestClockSkewPerturbsObservationsDeterministically(t *testing.T) {
	runSkewed := func(shards int) chaosRun {
		cfg := equivalenceConfig(BackendInproc)
		cfg.Faults = &faults.Profile{SkewP: 0.5, SkewMax: 45 * time.Minute}
		cfg.Shards = shards
		f := newCached(cfg)
		study, err := f.Run()
		if err != nil {
			t.Fatalf("skewed run (shards=%d): %v", shards, err)
		}
		var buf bytes.Buffer
		if err := study.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return chaosRun{jsonl: buf.Bytes(), stats: f.Stats(), obs: f.Observations(), fp: f}
	}

	clean := runChaosStudy(t, BackendInproc, nil)
	skewed := runSkewed(1)

	if n := skewed.fp.injector.Counts()[faults.KindClockSkew]; n == 0 {
		t.Fatal("no clock skew injected; the test is vacuous")
	}
	// Records are untouched — skew lands only on monitor timestamps.
	if !bytes.Equal(clean.jsonl, skewed.jsonl) {
		t.Fatal("clock skew changed the study records; it must only move observation timestamps")
	}
	if reflect.DeepEqual(clean.obs, skewed.obs) {
		t.Fatal("clock skew left every observation timestamp untouched; the fault never landed")
	}
	// Skewed observations stay in the neighborhood of the clean ones.
	for url, ob := range skewed.obs {
		want := clean.obs[url]
		if want == nil {
			t.Fatalf("skewed run observed %s, clean run did not", url)
		}
		if !ob.HostDownAt.IsZero() && !want.HostDownAt.IsZero() {
			if d := ob.HostDownAt.Sub(want.HostDownAt); d < -45*time.Minute || d > 45*time.Minute {
				t.Fatalf("%s: HostDownAt skewed by %v, beyond ±45m", url, d)
			}
		}
	}

	// Deterministic per seed: an identical skewed run reproduces the same
	// skewed observations bit for bit.
	again := runSkewed(1)
	if !reflect.DeepEqual(skewed.obs, again.obs) {
		t.Fatal("skewed observations diverge across identical runs")
	}
	// And shard-invariant: per-URL keying means a 4-shard skewed run
	// lands every skew on the same URL at the same magnitude.
	sharded := runSkewed(4)
	if !bytes.Equal(skewed.jsonl, sharded.jsonl) {
		t.Fatal("skewed records diverge between 1 and 4 shards")
	}
	if !reflect.DeepEqual(skewed.obs, sharded.obs) {
		t.Fatal("skewed observations diverge between 1 and 4 shards")
	}
	if skewed.stats != sharded.stats {
		t.Fatalf("skewed stats diverge between 1 and 4 shards:\n1: %+v\n4: %+v", skewed.stats, sharded.stats)
	}
}

// webFaults chains a per-kind tally of the faults fired on the "web"
// endpoint onto the injector's observer at the first poll, as
// observedStream does for every endpoint.
type webFaults struct {
	inner world.URLStream
	f     *FreePhish
	once  sync.Once
	mu    sync.Mutex
	kinds map[string]int
}

func (s *webFaults) Poll(now time.Time) ([]crawler.StreamedURL, error) {
	s.once.Do(func() {
		inner := s.f.injector.Observe
		s.f.injector.Observe = func(kind, endpoint, key string) {
			if endpoint == "web" {
				s.mu.Lock()
				s.kinds[kind]++
				s.mu.Unlock()
			}
			inner(kind, endpoint, key)
		}
	})
	return s.inner.Poll(now)
}

// TestChaosReachesSnapshotSource pins chaos on the snapshot path, which
// the inproc backend reads straight from the host: the web endpoint must
// draw the same faults, kind for kind, as the http backend's middleware,
// with fetch.<host> retries recorded on both; and a web blackout longer
// than the retry budget must leave both backends with the same study —
// the blacked-out fetches read a 503 page, they do not fail the run.
func TestChaosReachesSnapshotSource(t *testing.T) {
	run := func(backend string, prof faults.Profile) (chaosRun, map[string]int) {
		t.Helper()
		cfg := equivalenceConfig(backend)
		cfg.Faults = &prof
		f := newCached(cfg)
		var wf *webFaults
		f.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
			wf = &webFaults{inner: s, f: f, kinds: map[string]int{}}
			return wf
		})
		study, err := f.Run()
		if err != nil {
			t.Fatalf("%s backend: %v", backend, err)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("%s backend failed verification: %v", backend, err)
		}
		var buf bytes.Buffer
		if err := study.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return chaosRun{jsonl: buf.Bytes(), stats: f.Stats(), obs: f.Observations(), fp: f}, wf.kinds
	}
	fetchRetries := func(f *FreePhish) float64 {
		var n float64
		for _, s := range f.Metrics.Registry.Snapshot() {
			if s.Name == "freephish_retries_total" && strings.HasPrefix(s.Labels["key"], "fetch.") {
				n += s.Value
			}
		}
		return n
	}

	inproc, inKinds := run(BackendInproc, faults.DefaultProfile())
	httpRun, httpKinds := run(BackendHTTP, faults.DefaultProfile())
	if !reflect.DeepEqual(inKinds, httpKinds) {
		t.Errorf("web faults by kind: inproc %v, http %v", inKinds, httpKinds)
	}
	t.Logf("web faults by kind: %v", inKinds)
	for _, kind := range []string{faults.KindServerErr, faults.KindReset, faults.KindTruncate} {
		if inKinds[kind] == 0 {
			t.Errorf("no %s fault fired on the web endpoint (%v)", kind, inKinds)
		}
	}
	for name, r := range map[string]chaosRun{"inproc": inproc, "http": httpRun} {
		if fetchRetries(r.fp) == 0 {
			t.Errorf("%s: no fetch.<host> retries recorded", name)
		}
	}

	// The web is dark for three days early in the window: every fetch in
	// it exhausts the retry budget on 503s.
	blackout := faults.Profile{
		MaxConsecutive: 2,
		Blackouts:      []faults.Blackout{{Endpoint: "web", Start: 5 * 24 * time.Hour, Length: 3 * 24 * time.Hour}},
	}
	inDark, inDarkKinds := run(BackendInproc, blackout)
	httpDark, httpDarkKinds := run(BackendHTTP, blackout)
	if inDarkKinds[faults.KindBlackout] == 0 || !reflect.DeepEqual(inDarkKinds, httpDarkKinds) {
		t.Fatalf("web blackout faults: inproc %v, http %v", inDarkKinds, httpDarkKinds)
	}
	if !bytes.Equal(inDark.jsonl, httpDark.jsonl) {
		t.Error("a web blackout gives different records on the two backends")
	}
	if inDark.stats != httpDark.stats {
		t.Errorf("a web blackout gives different stats:\ninproc: %+v\nhttp:   %+v", inDark.stats, httpDark.stats)
	}
	if !reflect.DeepEqual(inDark.obs, httpDark.obs) {
		t.Error("a web blackout gives different monitor observations on the two backends")
	}
	if inDark.stats == inproc.stats {
		t.Error("a three-day web blackout left the study's stats untouched; no fetch fell in it")
	}
}
