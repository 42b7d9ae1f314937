package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/baselines"
	"freephish/internal/core"
	"freephish/internal/crawler"
	"freephish/internal/features"
	"freephish/internal/htmlx"
	"freephish/internal/obs"
	"freephish/internal/pipe"
	"freephish/internal/retry"
	"freephish/internal/shard"
	"freephish/internal/simclock"
	"freephish/internal/state"
	"freephish/internal/threat"
	"freephish/internal/world"
)

// Layer replays: every layer's public functions called directly on inputs
// generated from the workload's seed on a fresh world, so the timings can
// neither perturb nor be perturbed by the checked study run.

// replayWorld is a fresh copy of the workload's world, wired to its backend
// the way core wires a study: the crawler over an in-process transport and
// the other ports straight to the Sim for inproc, everything over loopback
// HTTP for http.
type replayWorld struct {
	cfg     core.Config
	clock   *simclock.Clock
	sim     *world.Sim
	poller  *crawler.Poller
	fetcher *crawler.Fetcher
	ports   world.World
	servers []*httptest.Server
	// step is the span of the clock step in flight (-1 untraced).
	step int
}

func newReplayWorld(cfg core.Config) *replayWorld {
	clock := simclock.New(cfg.Epoch)
	rw := &replayWorld{cfg: cfg, clock: clock, sim: world.NewSim(cfg.Seed, cfg.Epoch, clock), step: -1}
	// core's study retry policy: no wall-clock sleeps, breaker per endpoint.
	pol := &retry.Policy{
		MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second,
		Multiplier: 2, Jitter: 0.25, Seed: cfg.Seed, Sleep: retry.NoSleep, Now: clock.Now,
		BreakerThreshold: 3, BreakerCooldown: 30 * time.Minute,
	}
	endpoints := make(map[threat.Platform]string)
	if cfg.Backend == core.BackendHTTP {
		web := rw.serve(rw.sim.WebHandler())
		for _, plat := range rw.sim.Platforms() {
			h, _ := rw.sim.PlatformHandler(plat)
			endpoints[plat] = rw.serve(h).URL
		}
		api := rw.serve(world.NewSimAPI(rw.sim))
		rw.fetcher = crawler.NewFetcher(web.URL)
		rw.poller = crawler.NewPoller(endpoints, nil, cfg.Epoch)
		rw.ports = world.OverHTTP(world.Endpoints{API: api.URL, Platforms: endpoints, Retry: pol})
	} else {
		rt := world.NewHandlerTransport()
		rt.Handle("web.inproc", rw.sim.WebHandler())
		for _, plat := range rw.sim.Platforms() {
			h, _ := rw.sim.PlatformHandler(plat)
			host := string(plat) + ".inproc"
			rt.Handle(host, h)
			endpoints[plat] = "http://" + host
		}
		client := &http.Client{Transport: rt, Timeout: 10 * time.Second}
		rw.fetcher = crawler.NewFetcher("http://web.inproc")
		rw.fetcher.Client = client
		rw.poller = crawler.NewPoller(endpoints, client, cfg.Epoch)
		rw.ports = world.WithRetry(world.Inproc(rw.sim), pol)
	}
	rw.fetcher.Retry = pol
	rw.poller.Retry = pol
	rw.sim.SchedulePosts(postingPlan(cfg))
	return rw
}

func (rw *replayWorld) serve(h http.Handler) *httptest.Server {
	s := httptest.NewServer(h)
	rw.servers = append(rw.servers, s)
	return s
}

func (rw *replayWorld) close() {
	rw.fetcher.Client.CloseIdleConnections()
	rw.poller.Client.CloseIdleConnections()
	for _, s := range rw.servers {
		s.Close()
	}
}

// run steps the clock through the study window and its trailing week,
// calling tick at every poll instant, exactly as core schedules polls.
// With rec set, every clock step is a "sim.step" span.
func (rw *replayWorld) run(rec *recorder, tick func(now time.Time) error) error {
	var tickErr error
	until := rw.cfg.Epoch.Add(rw.cfg.Duration)
	stop := rw.clock.Every(rw.cfg.PollInterval, until, "perfbench.poll", func(now time.Time) {
		if tickErr == nil {
			tickErr = tick(now)
		}
	})
	defer stop()
	horizon := until.Add(7 * 24 * time.Hour)
	for tickErr == nil {
		if rec != nil {
			rw.step = rec.start("sim.step", -1)
		}
		more := rw.clock.StepUntil(horizon)
		if rec != nil {
			rec.end(rw.step)
		}
		if !more {
			break
		}
	}
	return tickErr
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) (objects, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// pollLayers replays Poller.Poll over the workload's schedule. Per-call
// allocations are the difference to an identical replay that skips the
// polls, since the world's own posting events allocate too.
func pollLayers(cfg core.Config) (map[string]float64, error) {
	var us []float64
	pass := func(poll bool) (uint64, uint64, error) {
		rw := newReplayWorld(cfg)
		defer rw.close()
		var err error
		objs, bytes := mallocs(func() {
			err = rw.run(nil, func(now time.Time) error {
				if !poll {
					return nil
				}
				t := time.Now()
				_, err := rw.poller.Poll(now)
				us = append(us, float64(time.Since(t))/1e3)
				return err
			})
		})
		return objs, bytes, err
	}
	base, baseBytes, err := pass(false)
	if err != nil {
		return nil, err
	}
	objs, bytes, err := pass(true)
	if err != nil {
		return nil, fmt.Errorf("replay polls: %w", err)
	}
	n := float64(len(us))
	d := summarize(us, 0.99)
	return map[string]float64{
		"crawler.poll.calls":  n,
		"crawler.poll.p50_us": d.P50,
		"crawler.poll.p99_us": d.Tail,
		"crawler.poll.allocs": max(0, float64(objs)-float64(base)) / n,
		"crawler.poll.bytes":  max(0, float64(bytes)-float64(baseBytes)) / n,
	}, nil
}

// models are the two classifiers core trains, fitted the same way.
type models struct{ fwb, base *baselines.StackDetector }

func trainModels(cfg core.Config) (models, map[string]float64, error) {
	sim := world.NewSim(cfg.Seed, cfg.Epoch, simclock.New(cfg.Epoch))
	fwbCorpus, selfCorpus := sim.GroundTruthCorpus(trainSize(cfg))
	labeled := func(samples []world.Sample) []baselines.LabeledPage {
		out := make([]baselines.LabeledPage, len(samples))
		for i, s := range samples {
			out[i] = baselines.LabeledPage{Page: features.Page{URL: s.URL, HTML: s.HTML}, Label: s.Label}
		}
		return out
	}
	m := models{fwb: baselines.NewFreePhishModel(cfg.Seed), base: baselines.NewBaseStackModel(cfg.Seed)}
	l := map[string]float64{}
	for _, fit := range []struct {
		metric string
		model  *baselines.StackDetector
		corpus []world.Sample
	}{{"baselines.train_fwb_s", m.fwb, fwbCorpus}, {"baselines.train_self_s", m.base, selfCorpus}} {
		fit.model.SetParallelism(cfg.Workers)
		t := time.Now()
		if err := fit.model.Train(labeled(fit.corpus)); err != nil {
			return m, nil, fmt.Errorf("train: %w", err)
		}
		l[fit.metric] = time.Since(t).Seconds()
	}
	return m, l, nil
}

// urlLayers replays every fresh URL's life through the world ports and the
// classification layers in stream order, one span per call, and returns
// the per-call distributions plus the snapshot pages it saw.
func urlLayers(cfg core.Config, m models, rec *recorder) (map[string]float64, []features.Page, error) {
	rw := newReplayWorld(cfg)
	defer rw.close()
	seen := make(map[string]bool)
	var pages []features.Page
	err := rw.run(rec, func(now time.Time) error {
		cyc := rec.start("cycle", rw.step)
		defer rec.end(cyc)
		ps := rec.start("crawler.poll", cyc)
		urls, err := rw.poller.Poll(now)
		rec.end(ps)
		if err != nil {
			return err
		}
		for _, su := range urls {
			if seen[su.URL] {
				continue
			}
			seen[su.URL] = true
			page, err := probeURL(rw, m, rec, cyc, su, now)
			if err != nil {
				return err
			}
			if page.HTML != "" {
				pages = append(pages, page)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay urls: %w", err)
	}
	l := map[string]float64{"simclock.step_self_s": selfSeconds(rec.spans, "sim.step")}
	for _, name := range []string{"htmlx.parse", "features.extract", "baselines.score",
		"world.snapshot", "world.resolve", "world.profile", "world.assess", "world.moderation", "world.disclose"} {
		d := summarize(rec.durations(name), 0.99)
		l[name+".p50_us"], l[name+".p99_us"], l[name+".n"] = d.P50, d.Tail, float64(d.N)
	}
	return l, pages, nil
}

// probeURL is one URL's path through the layers, in core's order: snapshot,
// resolve, parse, extract and score; a flagged URL is then profiled,
// assessed, moderated and disclosed. It returns the page when it was scored.
func probeURL(rw *replayWorld, m models, rec *recorder, cyc int, su crawler.StreamedURL, now time.Time) (features.Page, error) {
	u := rec.start("url", cyc)
	defer rec.end(u)
	call := func(name string, fn func() error) error {
		id := rec.start(name, u)
		err := fn()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s %q: %w", name, su.URL, err)
		}
		return nil
	}
	var (
		page   features.Page
		status int
		info   world.SiteInfo
		score  float64
		target *threat.Target
	)
	if err := call("world.snapshot", func() (err error) {
		page, status, err = rw.fetcher.Snapshot(su.URL)
		return err
	}); err != nil || status != http.StatusOK {
		return features.Page{}, err
	}
	if err := call("world.resolve", func() (err error) {
		info, err = rw.ports.Intel.Resolve(su.URL)
		return err
	}); err != nil || !info.Hosted {
		return features.Page{}, err
	}
	scored := features.Page{URL: page.URL, HTML: page.HTML}
	parse := rec.start("htmlx.parse", u)
	page.Doc = htmlx.Parse(page.HTML)
	rec.end(parse)
	if err := call("features.extract", func() error {
		_, err := features.Extract(page)
		return err
	}); err != nil {
		return scored, err
	}
	model := m.base
	if info.IsFWB {
		model = m.fwb
	}
	if err := call("baselines.score", func() (err error) {
		score, err = model.Score(page)
		return err
	}); err != nil || score < 0.5 {
		return scored, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"world.profile", func() (err error) {
			target, err = rw.ports.Intel.Profile(world.ProfileRequest{
				URL: su.URL, HTML: page.HTML, SharedAt: su.At, Platform: su.Platform, PostID: su.PostID,
			})
			return err
		}},
		{"world.assess", func() error {
			_, _, err := rw.ports.Feeds.Assess(target)
			return err
		}},
		{"world.moderation", func() error {
			removed, at, err := rw.ports.Platform.AssessModeration(target)
			if err == nil && removed {
				err = rw.ports.Platform.RemovePost(su.Platform, su.PostID, at)
			}
			return err
		}},
		{"world.disclose", func() error {
			_, err := rw.ports.Reports.Disclose(target, now)
			return err
		}},
	}
	for _, s := range steps {
		if err := call(s.name, s.fn); err != nil {
			return scored, err
		}
	}
	return scored, nil
}

// pageAllocs counts allocations per call of htmlx.Parse and of
// features.Extract on an already parsed page, over the replay's pages.
func pageAllocs(pages []features.Page) map[string]float64 {
	const chunk = 64
	var parse, extract uint64
	for lo := 0; lo < len(pages); lo += chunk {
		batch := append([]features.Page(nil), pages[lo:min(lo+chunk, len(pages))]...)
		n, _ := mallocs(func() {
			for i := range batch {
				batch[i].Doc = htmlx.Parse(batch[i].HTML)
			}
		})
		parse += n
		n, _ = mallocs(func() {
			for _, p := range batch {
				_, _ = features.Extract(p) // errors were surfaced by the replay
			}
		})
		extract += n
	}
	n := float64(max(1, len(pages)))
	return map[string]float64{
		"htmlx.parse.allocs":      float64(parse) / n,
		"features.extract.allocs": float64(extract) / n,
	}
}

// pipeLayers times core's per-cycle graph shape — New, Source, fetch and
// classify stages, Drain — with no-op stages at the workload's Workers and
// QueueDepth, over an empty cycle and over five items.
func pipeLayers(cfg core.Config) (map[string]float64, error) {
	const iters = 3000
	reg := obs.NewRegistry()
	workers, depth := pipe.Workers(cfg.Workers), pipe.DepthOrDefault(cfg.QueueDepth)
	noop := func(i, v int) (int, error) { return v, nil }
	cycle := func(items []int) error {
		p := pipe.New(context.Background(), pipe.Options{Name: "poll", Registry: reg})
		fetched := pipe.Stage(pipe.Source(p, depth, items), "fetch", workers, depth, noop)
		classified := pipe.Stage(fetched, "classify", workers, depth, noop)
		return pipe.Drain(classified, func(int, int) error { return nil })
	}
	l := map[string]float64{"pipe.cycle.n": iters}
	for _, shape := range []struct {
		name  string
		items []int
	}{{"pipe.cycle_empty_us", nil}, {"pipe.cycle_busy_us", []int{0, 1, 2, 3, 4}}} {
		us := make([]float64, 0, iters)
		var err error
		objs, _ := mallocs(func() {
			for i := 0; i < iters && err == nil; i++ {
				t := time.Now()
				err = cycle(shape.items)
				us = append(us, float64(time.Since(t))/1e3)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("pipe cycle: %w", err)
		}
		l[shape.name] = summarize(us, 0.99).P50
		if shape.items == nil {
			l["pipe.cycle_empty_allocs"] = float64(objs) / iters
		}
	}
	return l, nil
}

// shardSpec is the dispatch unit core's coordinator builds for shard i,
// streaming a checkpoint every simulated day as the coordinator asks.
func shardSpec(cfg core.Config, i int) shard.Spec {
	return shard.Spec{ShardSpec: state.ShardSpec{
		Seed: cfg.Seed, Epoch: cfg.Epoch, Duration: cfg.Duration,
		FWBTwitter: cfg.FWBTwitter, FWBFacebook: cfg.FWBFacebook,
		SelfTwitter: cfg.SelfTwitter, SelfFacebook: cfg.SelfFacebook,
		BenignPerPhish: cfg.BenignPerPhish, Scale: cfg.Scale,
		PollInterval: cfg.PollInterval, TrainPerClass: cfg.TrainPerClass,
		GrowthExponent: cfg.GrowthExponent, ReshareRate: cfg.ReshareRate,
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, Backend: cfg.Backend,
		Shard: i, Shards: cfg.Shards,
		CheckpointEvery: int(24 * time.Hour / cfg.PollInterval),
	}}
}

// shardLayers runs every shard spec of the study concurrently, as the
// coordinator does, through core's spec runner — keeping each shard's last
// streamed checkpoint the way failover adoption does — and returns the
// per-shard timings and the digest of the merged snapshots.
func shardLayers(cfg core.Config) (map[string]float64, string, error) {
	ctx := context.Background()
	runner := core.NewSpecRunner()
	// The runner trains and caches the study's models before it decodes a
	// spec's Resume, so a spec with an undecodable Resume warms the cache
	// and fails fast; the timed runs below then measure the shards alone.
	warm := shardSpec(cfg, 0)
	warm.Resume = []byte("{}")
	_, _ = runner.Run(ctx, warm, nil)

	n := cfg.Shards
	snaps := make([]*state.Snapshot, n)
	secs := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var last []byte
			keep := func(chk []byte) error {
				last = append(last[:0], chk...)
				return nil
			}
			t := time.Now()
			snaps[i], errs[i] = runner.Run(ctx, shardSpec(cfg, i), keep)
			secs[i] = time.Since(t).Seconds()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, "", fmt.Errorf("shard %d: %w", i, err)
		}
	}
	lo, hi := secs[0], secs[0]
	for _, s := range secs {
		lo, hi = min(lo, s), max(hi, s)
	}
	merged := state.Merge(snaps...)
	digest, err := studyDigest(&analysis.Study{Records: merged.Records}, merged.Stats)
	if err != nil {
		return nil, "", err
	}
	return map[string]float64{"shard.run_max_s": hi, "shard.skew": hi / lo}, digest, nil
}

// runLayers is the layer-replay child: every replay above on one fresh
// world per pass. The spans of the URL replay are written next to the
// runner binary once it is over.
func runLayers(w workload, seed int64) studyResult {
	cfg := w.config(seed)
	res := studyResult{Layers: map[string]float64{}}
	fail := func(err error) studyResult {
		res.Err = "layers: " + err.Error()
		return res
	}
	add := func(l map[string]float64) {
		for k, v := range l {
			res.Layers[k] = v
		}
	}
	m, train, err := trainModels(cfg)
	if err != nil {
		return fail(err)
	}
	add(train)
	polls, err := pollLayers(cfg)
	if err != nil {
		return fail(err)
	}
	add(polls)
	rec := newRecorder()
	urls, pages, err := urlLayers(cfg, m, rec)
	if err != nil {
		return fail(err)
	}
	add(urls)
	add(pageAllocs(pages))
	if err := writeSpans(rec, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)); err != nil {
		return fail(err)
	}
	pl, err := pipeLayers(cfg)
	if err != nil {
		return fail(err)
	}
	add(pl)
	if cfg.Shards > 1 {
		sl, digest, err := shardLayers(cfg)
		if err != nil {
			return fail(err)
		}
		add(sl)
		res.Digest = digest
	}
	return res
}

// writeSpans dumps the recorded spans beside the runner binary.
func writeSpans(rec *recorder, name string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(filepath.Dir(exe), name))
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
