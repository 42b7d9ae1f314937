// Package core wires the FreePhish framework together (Figure 4): the
// streaming module polls the Twitter/Facebook APIs every 10 minutes, the
// pre-processing module snapshots each shared website over HTTP and
// extracts its features, the classification module runs the augmented
// stacking model, the reporting module discloses confirmed attacks to the
// hosting FWB, and the analysis module longitudinally records how every
// anti-phishing entity responds. It also contains the six-month
// measurement-study driver behind Tables 3–4 and Figures 5–9 and the
// 2020–2022 historical study behind Figure 1.
//
// The pipeline touches the outside world only through internal/world's
// ports; Config.Backend selects whether those ports are wired in-process
// or over real HTTP servers. Both backends produce bit-identical studies.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/baselines"
	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/features"
	"freephish/internal/htmlx"
	"freephish/internal/obs"
	"freephish/internal/pipe"
	"freephish/internal/retry"
	"freephish/internal/simclock"
	"freephish/internal/state"
	"freephish/internal/world"
)

// Config parameterizes a measurement study. The study knobs are the
// embedded state.ShardSpec's fields, declared and documented there once,
// so every knob reaches a shard — local or remote — unchanged and is
// fingerprinted by construction. Config itself declares only the hooks of
// this deployment, which never travel: observability, the coordinator's
// remote workers, and the operator checkpoint file. Run ignores the
// embedded Shard and Fingerprint (see state.ShardSpec).
type Config struct {
	state.ShardSpec
	// Registry receives the run's metrics. nil gives each FreePhish a
	// private registry, so concurrent studies never collide; pass a
	// shared registry to expose the run on a daemon's /metrics endpoint.
	Registry *obs.Registry
	// Progress, when set, is invoked after every poll cycle — the hook
	// long study runs narrate themselves through.
	Progress func(ProgressEvent)
	// Logger, when set, receives a structured "poll cycle" event once per
	// simulated day of polls and any server-shutdown errors at the end of
	// a run.
	Logger *slog.Logger
	// ShardWorkers lists remote shard-worker endpoints ("host:port" or
	// http:// URLs) the coordinator may dispatch shards to (see
	// dispatch.go). Dispatch goes through the unified retry policy with a
	// per-endpoint circuit breaker; a worker that dies or blacks out fails
	// the shard over — to another worker or to a local child — resuming
	// from the shard's last streamed checkpoint. The study is byte-identical
	// whether shards run locally, remotely, or in any failover mix. Empty
	// (the default) runs every shard in-process.
	ShardWorkers []string
	// CheckpointPath, when non-empty, enables periodic checkpointing: a
	// state.Checkpoint is written atomically (temp file + rename) to this
	// path at ordered-apply boundaries — after a poll cycle or monitor
	// tick, with no other event pending at the same instant — so a killed
	// run resumes from the last cut instead of restarting the window.
	// CheckpointEvery sets the stride. Not supported with Shards > 1: the
	// shard coordinator streams and adopts per-shard checkpoints itself
	// (see dispatch.go), and an operator file would capture only one
	// shard's slice of the study.
	CheckpointPath string
	// Resume, when non-nil, resumes the study from a checkpoint instead of
	// starting at the epoch: the posting schedule replays deterministically
	// to the checkpoint instant, recorded outcomes are re-applied to the
	// world, and the state, journal, cursors, and in-flight monitor
	// schedules are restored (see checkpoint.go). The checkpoint's config
	// fingerprint must match this Config or Run fails loudly. The resumed
	// run's records, journal, and stats are byte-identical to the
	// uninterrupted run's.
	Resume *state.Checkpoint
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{ShardSpec: state.ShardSpec{
		Seed:           1,
		Epoch:          time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC),
		Duration:       182 * 24 * time.Hour,
		FWBTwitter:     19724,
		FWBFacebook:    11681,
		SelfTwitter:    19724,
		SelfFacebook:   11681,
		BenignPerPhish: 0.5,
		Scale:          1.0,
		PollInterval:   10 * time.Minute,
		TrainPerClass:  4656,
		GrowthExponent: 1.6,
		ReshareRate:    0.4,
		Backend:        BackendInproc,
	}}
}

// scaled applies Scale to a population.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// pollsPerDay is the number of poll cycles in one simulated day, at least
// one: the stride of Logger events and the default shard checkpoint stride.
func (c Config) pollsPerDay() int { return max(1, int(24*time.Hour/c.PollInterval)) }

// Stats are the framework's operational counters. They live in
// internal/state (the mergeable study-state layer); the alias keeps the
// historical core.Stats name working for renderers and callers.
type Stats = state.Stats

// Observation is what the active monitor saw for one URL (aliased from
// internal/state, which owns all study-state mutation).
type Observation = state.Observation

// FreePhish is the assembled framework plus its simulated world.
type FreePhish struct {
	Config Config
	Clock  *simclock.Clock
	// Sim is the simulated world substrate. It always lives in-process —
	// Config.Backend only selects whether the pipeline reaches it through
	// direct calls or through its HTTP servers.
	Sim *world.Sim

	// The trained models. They are read-only once trained, so any number
	// of frameworks may share them (see train.go).
	Model     *baselines.StackDetector // augmented FreePhish classifier
	BaseModel *baselines.StackDetector // base StackModel (self-hosted cohort)
	// Lexical is the cascade's URL-only triage scorer, trained alongside
	// the full models when Config.CascadeOn is set (nil otherwise).
	Lexical *baselines.LexicalScorer
	// State is the run's mutable outcome — counters, record set, monitor
	// observations, and the stream dedup set. Every stateful effect goes
	// through its apply points (internal/state owns the mutation surface);
	// read results through the Stats/Study/Observations methods.
	State *state.StudyState
	// Metrics is the run's observability surface: every pipeline stage
	// reports into its registry and tracer (see metrics.go).
	Metrics *Metrics

	// world is the backend-selected port set the pipeline consumes.
	world world.World
	// eval is the harness-side evaluation component — the only consumer
	// of ground-truth labels (via the oracle port).
	eval *evaluator

	fetcher  *crawler.Fetcher
	poller   *crawler.Poller
	servers  []*webServer
	runStart time.Time
	// retryPol is the run's unified retry policy; every world-facing call
	// (poller, fetcher, adapters) shares it, so backoff and breaker state
	// are observed in one place.
	retryPol *retry.Policy
	// injector is the chaos source when Config.Faults is set (nil
	// otherwise); tests read its counts to assert faults actually fired.
	injector *faults.Injector
	// listen is the server bind hook; tests inject failures through it.
	listen listenFunc
	// wrapWorld, when set, decorates the world ports after backend wiring;
	// tests inject poll failures and observe port traffic through it.
	wrapWorld func(world.World) world.World
	// cascade pairs Lexical with Config's cascade thresholds (nil when the
	// cascade is off); Run builds it. Read-only — stage workers share it.
	cascade *baselines.Cascade

	// Sharding (see shard.go). shardIndex/shardCount partition the posting
	// schedule when this FreePhish is one shard of a larger study;
	// shardHook is a test seam invoked before each shard attempt.
	shardIndex int
	shardCount int
	shardHook  func(shard, attempt int) error
	// shardPrep is a test seam invoked on each in-process shard child just
	// before it runs, so tests can arrange mid-run failures inside the
	// child (e.g. a failing stream wrapper).
	shardPrep func(child *FreePhish, shard, attempt int)

	// train, when set, replaces trainModels in Train; tests point it at
	// their package-wide model cache.
	train func(trainKey, int) (*trainedModels, error)

	// checkpointSink is a test seam: when set, every checkpoint's encoded
	// bytes are also delivered here (checkpointing is active whenever the
	// sink or Config.CheckpointPath is set). Tests use it to capture every
	// cut point of a run without funneling them through one file.
	checkpointSink func(data []byte) error
}

// Stats returns the run's operational counters.
func (f *FreePhish) Stats() Stats { return f.State.Stats() }

// Study returns the accumulated analysis record set.
func (f *FreePhish) Study() *analysis.Study { return f.State.Study() }

// Observations returns the active monitor's per-URL findings, keyed by
// URL (populated only when Config.MonitorInterval > 0).
func (f *FreePhish) Observations() map[string]*Observation { return f.State.Observations() }

// New assembles the framework and its world. Call Train before Run, or let
// Run train lazily.
func New(cfg Config) *FreePhish {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Minute
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.GrowthExponent <= 0 {
		cfg.GrowthExponent = 1.6
	}
	clock := simclock.New(cfg.Epoch)
	f := &FreePhish{
		Config: cfg,
		Clock:  clock,
		Sim:    world.NewSim(cfg.Seed, cfg.Epoch, clock),
		State:  state.New(),
		listen: defaultListen,
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f.Metrics = newMetrics(reg, clock.Now, cfg.Epoch)
	if cfg.Journal {
		f.Metrics.Journal = obs.NewJournal(clock.Now, obs.DefaultJournalRing)
	}
	return f
}

// Train builds the ground-truth corpus (§4.2) and fits both the augmented
// FreePhish model and the base StackModel used to select the self-hosted
// comparison cohort, plus the cascade's lexical scorer when
// Config.CascadeOn is set. It trains on every call; Run trains only when no models are set.
func (f *FreePhish) Train() error {
	train := f.train
	if train == nil {
		train = trainModels
	}
	m, err := train(f.trainKey(), f.Config.Workers)
	if err != nil {
		return err
	}
	f.Model, f.BaseModel, f.Lexical = m.model, m.base, m.lexical
	return nil
}

// Run executes the measurement study and returns the analysis record
// set. With Config.Shards > 1 the study fans out across N sub-stream
// shards and merges their snapshots (see shard.go); either way the
// returned record set and the journal are in canonical order. Run trains
// first when the framework holds no models (or no lexical scorer for an
// enabled cascade).
func (f *FreePhish) Run() (*analysis.Study, error) {
	if f.Config.Shards > 1 && (f.Config.CheckpointPath != "" || f.Config.Resume != nil || f.checkpointSink != nil) {
		return nil, fmt.Errorf("core: checkpoint/resume is not supported with Shards > 1 (the coordinator streams and adopts per-shard checkpoints itself — a dead shard resumes from its last cut, and an operator file would hold only one shard's slice)")
	}
	if chk := f.Config.Resume; chk != nil {
		if err := f.checkResume(chk); err != nil {
			return nil, err
		}
	}
	f.runStart = time.Now()
	if f.Model == nil || f.BaseModel == nil || (f.Config.CascadeOn && f.Lexical == nil) {
		sp := f.Metrics.Tracer.Start("train")
		err := f.Train()
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
	}
	if f.Config.CascadeOn {
		f.cascade = &baselines.Cascade{Scorer: f.Lexical, BenignBelow: f.Config.CascadeBenignBelow, PhishAbove: f.Config.CascadePhishAbove}
	}
	if f.Config.Shards > 1 {
		return f.runSharded()
	}
	return f.runLocal()
}

// runLocal executes the study in this process over this framework's own
// posting partition (the full schedule unless this FreePhish is a shard).
func (f *FreePhish) runLocal() (*analysis.Study, error) {
	if err := f.startServers(); err != nil {
		return nil, err
	}
	defer f.stopServers()

	f.Sim.SchedulePosts(world.PostingPlan{
		FWBTwitter:     f.Config.scaled(f.Config.FWBTwitter),
		FWBFacebook:    f.Config.scaled(f.Config.FWBFacebook),
		SelfTwitter:    f.Config.scaled(f.Config.SelfTwitter),
		SelfFacebook:   f.Config.scaled(f.Config.SelfFacebook),
		BenignTwitter:  f.Config.scaled(int(float64(f.Config.FWBTwitter) * f.Config.BenignPerPhish)),
		BenignFacebook: f.Config.scaled(int(float64(f.Config.FWBFacebook) * f.Config.BenignPerPhish)),
		Duration:       f.Config.Duration,
		GrowthExponent: f.Config.GrowthExponent,
		ReshareRate:    f.Config.ReshareRate,
		Shard:          f.shardIndex,
		Shards:         f.shardCount,
	})
	var pollErr error
	stop := func() {}
	pollTick := func(now time.Time) {
		if pollErr != nil {
			return
		}
		if err := f.pollOnce(now); err != nil {
			pollErr = err
			// A failed study cannot recover: cancel the poll subscription so
			// no further cycles fire while the driver below unwinds.
			stop()
		}
	}
	pollUntil := f.Config.Epoch.Add(f.Config.Duration)
	if f.Config.Resume != nil {
		// Resume: replay the world to the checkpoint instant and restore
		// the state, journal, cursors, and monitor schedules, then rejoin
		// the original poll schedule at its next tick.
		if err := f.restoreRun(f.Config.Resume); err != nil {
			return nil, err
		}
		if next, ok := f.nextPollAfter(f.Config.Resume.SimNow, pollUntil); ok {
			stop = f.Clock.EveryAt(next, f.Config.PollInterval, pollUntil, "freephish.poll", pollTick)
		}
	} else {
		stop = f.Clock.Every(f.Config.PollInterval, pollUntil, "freephish.poll", pollTick)
	}
	defer func() { stop() }()

	cp, err := f.newCheckpointer()
	if err != nil {
		return nil, err
	}

	// Run the window plus one week of trailing observation, one event at a
	// time so a poll failure ends the study at the failing cycle instead of
	// ticking out the rest of the window and the tail.
	horizon := f.Config.Epoch.Add(f.Config.Duration + 7*24*time.Hour)
	for pollErr == nil && f.Clock.StepUntil(horizon) {
		if cp != nil {
			if err := cp.maybe(f); err != nil {
				// A checkpoint that cannot be written is a loud failure: the
				// operator asked for resumability and silently losing it
				// defeats the point.
				return nil, err
			}
		}
	}
	if pollErr != nil {
		return nil, pollErr
	}
	f.finishRun()
	return f.State.Study(), nil
}

// finishRun puts the completed study into canonical order: records sort
// by (classification time, URL) and the journal rebuilds into the
// canonical (Ord, URL, Seq) sequence. Every successful run — sharded or
// not — passes through here, which is what makes an N-shard merge
// byte-identical to the 1-shard output.
func (f *FreePhish) finishRun() {
	f.State.SortRecords()
	if j := f.Metrics.Journal; j != nil {
		f.Metrics.Journal = obs.RebuildJournal(
			f.Clock.Now, obs.DefaultJournalRing, obs.SortCanonical(j.Events()))
	}
}

// pollOnce is one streaming-module cycle: poll both platforms, snapshot and
// classify every new URL, and register flagged URLs for longitudinal
// observation.
//
// The cycle is a streamed dataflow: dedup runs first, single-threaded in
// stream order (so intra-cycle reshares resolve deterministically), then
// the fresh URLs flow through a poll → fetch → classify → ordered-apply
// pipeline (internal/pipe). Fetch and classify each run on their own
// worker pool connected by bounded queues, so network wait overlaps CPU
// scoring and one slow fetch backpressures instead of buffering the cycle;
// the reorder buffer hands results to apply in stream order the moment the
// head-of-line item completes, which bounds per-cycle memory by (Workers +
// QueueDepth), never by cycle size. Stage functions touch only read-only
// or thread-safe state; every stateful effect, including all world-side
// RNG draws, happens in the ordered apply phase, which is what makes the
// study bit-identical at every Config.Workers and Config.QueueDepth
// setting — and, because the apply phase issues its port calls strictly in
// stream order, at every Config.Backend setting too.
func (f *FreePhish) pollOnce(now time.Time) (err error) {
	sp := f.Metrics.Tracer.Start("poll")
	defer func() {
		sp.EndErr(err)
		if err == nil {
			f.observeProgress(now)
		}
	}()
	f.State.AddPoll()
	f.Metrics.Polls.Inc()
	urls, err := f.world.Stream.Poll(now)
	if err != nil {
		return err
	}
	var fresh []crawler.StreamedURL
	for _, su := range urls {
		f.State.AddPostSeen()
		// First appearance wins: reshared URLs are already in the study (or
		// already rejected) and are not re-fetched.
		if !f.State.MarkSeen(su.URL) {
			f.Metrics.URLsDeduped.Inc()
			continue
		}
		fresh = append(fresh, su)
	}
	if len(fresh) == 0 {
		// With no item the graph would emit, journal, and apply nothing;
		// most cycles of a long study are empty, so skip building it.
		return nil
	}
	p := pipe.New(context.Background(), pipe.Options{
		Name: "poll", Registry: f.Metrics.Registry,
		OnEmit: journalEmit(f.Metrics.Journal, "poll"),
	})
	depth := f.queueDepth()
	// With the cascade on, a triage stage scores every fresh URL from its
	// string alone ahead of fetch; confident verdicts short-circuit the
	// fetch stage entirely (fetchProbe passes them through untouched).
	// With it off, the graph is exactly the historical fetch → classify
	// pair — triage is not in the pipeline at all.
	var fetched *pipe.Flow[*probeResult]
	if f.cascade != nil {
		triaged := pipe.Stage(pipe.Source(p, depth, fresh), "triage", f.workers(), depth,
			func(i int, su crawler.StreamedURL) (*probeResult, error) {
				return f.triageURL(su), nil
			})
		fetched = pipe.Stage(triaged, "fetch", f.workers(), depth,
			func(i int, pr *probeResult) (*probeResult, error) {
				return f.fetchProbe(pr), nil
			})
	} else {
		fetched = pipe.Stage(pipe.Source(p, depth, fresh), "fetch", f.workers(), depth,
			func(i int, su crawler.StreamedURL) (*probeResult, error) {
				return f.fetchURL(su), nil
			})
	}
	classified := pipe.Stage(fetched, "classify", f.workers(), depth,
		func(i int, pr *probeResult) (*probeResult, error) {
			return f.classifyURL(pr), nil
		})
	return pipe.Drain(classified, func(i int, pr *probeResult) error {
		return f.applyProbe(pr, now)
	})
}

// workers resolves Config.Workers to a concrete pool size.
func (f *FreePhish) workers() int { return pipe.Workers(f.Config.Workers) }

// queueDepth resolves Config.QueueDepth to a concrete per-stage bound.
func (f *FreePhish) queueDepth() int { return pipe.DepthOrDefault(f.Config.QueueDepth) }

// probeResult carries everything a probe learned about one streamed URL
// into the ordered apply phase.
type probeResult struct {
	su     crawler.StreamedURL
	page   features.Page
	status int
	info   world.SiteInfo
	cohort string
	score  float64
	// tier is the cascade's triage verdict; its zero value is
	// baselines.TierFull, so with the cascade off every probe takes the
	// full fetch + classify path. lexScore is the triage tier's URL-only
	// score (meaningful only when tier != TierFull).
	tier     baselines.Tier
	lexScore float64
	contrib  []baselines.Contribution // top features; only with the journal on
	err      error                    // terminal: snapshot, resolve, or classification failure
}

// triageURL is the cascade's triage stage: score the URL string with the
// lexical tier and assign a short-circuit verdict or fall-through. Pure
// like the other stage functions — the trained scorer is read-only and
// the metrics are atomic — so it runs at full worker parallelism.
func (f *FreePhish) triageURL(su crawler.StreamedURL) *probeResult {
	p := &probeResult{su: su}
	tsp := f.Metrics.Tracer.Start("triage")
	p.lexScore, p.tier = f.cascade.Triage(su.URL)
	tsp.End()
	f.Metrics.CascadeTriaged.With(p.tier.String()).Inc()
	return p
}

// fetchURL adapts the fetch stage to raw streamed URLs (the cascade-off
// pipeline, the historical graph).
func (f *FreePhish) fetchURL(su crawler.StreamedURL) *probeResult {
	return f.fetchProbe(&probeResult{su: su})
}

// fetchProbe is the pipeline's fetch stage: snapshot the page over the
// snapshot port and parse a 200 body — unless the triage tier already
// resolved the URL, in which case the probe passes through untouched and
// the fetch is counted as avoided. That parse is the page's only one:
// classify, the admission signature and the profile all read page.Doc.
// It must not mutate framework state — it runs concurrently with other
// fetches — so it only touches the (thread-safe) snapshot port and atomic
// metrics. A failed snapshot is carried in probeResult.err for the
// ordered apply phase to surface; it never aborts sibling items early.
func (f *FreePhish) fetchProbe(p *probeResult) *probeResult {
	if p.tier != baselines.TierFull {
		f.Metrics.CascadeFetchesAvoided.Inc()
		return p
	}
	fsp := f.Metrics.Tracer.Start("fetch")
	page, status, err := f.world.Snap.Snapshot(p.su.URL)
	if err == nil && status == 200 && page.Doc == nil {
		page.Doc = htmlx.Parse(page.HTML)
	}
	fsp.EndErr(err)
	if err != nil {
		p.err = fmt.Errorf("core: snapshot %q: %w", p.su.URL, err)
		return p
	}
	p.page, p.status = page, status
	return p
}

// classifyURL is the pipeline's classify stage: resolve the hosting
// attribution and score the page with the cohort's model. Splitting it
// from fetchURL lets CPU scoring of item i overlap the network wait of
// item i+k. Like fetchURL it touches only thread-safe state: the intel
// port, the trained (read-only) models, and atomic metrics. Items that
// already failed or vanished (status != 200) pass through untouched. A
// cascade short-circuit was never fetched, so it is resolved for its
// cohort but not scored.
func (f *FreePhish) classifyURL(p *probeResult) *probeResult {
	lexical := p.tier != baselines.TierFull
	if p.err != nil || (!lexical && p.status != 200) {
		return p
	}
	var err error
	p.info, err = f.world.Intel.Resolve(p.su.URL)
	if err != nil {
		p.err = fmt.Errorf("core: resolve %q: %w", p.su.URL, err)
		return p
	}
	if !p.info.Hosted {
		return p
	}
	p.cohort = "self-hosted"
	if p.info.IsFWB {
		p.cohort = "fwb"
	}
	if lexical {
		return p
	}
	model := f.BaseModel
	if p.info.IsFWB {
		model = f.Model
	}
	csp := f.Metrics.Tracer.Start("classify")
	c0 := time.Now()
	vec, err := model.Extract(p.page)
	c1 := time.Now()
	f.Metrics.ExtractSeconds.Observe(c1.Sub(c0).Seconds())
	if err == nil {
		p.score = model.Predict(vec)
		f.Metrics.InferSeconds.Observe(time.Since(c1).Seconds())
		if f.Metrics.Journal != nil {
			// The journal's classified event carries a verdict explanation,
			// so pay for the top-contribution ranking only when tracing is on.
			p.contrib = model.Explain(vec, journalTopFeatures)
		}
	}
	f.Metrics.ClassifySeconds.With(p.cohort).Observe(time.Since(c0).Seconds())
	csp.EndErr(err)
	if err != nil {
		p.err = err
		return p
	}
	f.Metrics.Scores.With(p.cohort).Observe(p.score)
	return p
}

// applyProbe is the sequential half: it consumes one probe in stream order
// and performs every stateful effect — counters, evaluation, blocklist/VT/
// moderation assessments, reporting, and record admission — through the
// world ports. Keeping this single-threaded in input order is the
// determinism contract of the parallel pipeline and of the http backend.
// A cascade short-circuit was never fetched: it has no fetched event and
// no scanned-URL count, and its lexical verdict is evaluated, reported
// and admitted through the same tail as a full classification.
func (f *FreePhish) applyProbe(p *probeResult, now time.Time) error {
	if p.err != nil {
		return p.err
	}
	// Lifecycle tracing records here — the single-threaded, stream-ordered
	// apply point — never from the concurrent stages, which is what keeps
	// the canonical journal byte-identical at every concurrency setting.
	su, j := p.su, f.Metrics.Journal
	if j != nil {
		j.Record(su.URL, obs.EvPosted, su.At, "platform", string(su.Platform), "post", su.PostID)
		j.Record(su.URL, obs.EvPolled, now)
	}
	lexical := p.tier != baselines.TierFull
	if lexical {
		f.State.AddLexical(p.tier == baselines.TierPhish)
	} else {
		if j != nil {
			j.Record(su.URL, obs.EvFetched, now, "status", statusLabel(p.status))
		}
		if p.status != 200 {
			return nil
		}
		f.State.AddScanned()
	}
	if !p.info.Hosted {
		return nil
	}
	flagged, score, tier := p.score >= 0.5, p.score, ""
	if lexical {
		flagged, score, tier = p.tier == baselines.TierPhish, p.lexScore, "lexical"
	}
	if j != nil {
		verdict := "benign"
		if flagged {
			verdict = "phishing"
		}
		scoreText := strconv.FormatFloat(score, 'g', -1, 64)
		// The lexical verdict gets its own lifecycle event type: a trace
		// must show either fetched+classified or classified_lexical,
		// never a classification without a fetch.
		if lexical {
			j.Record(su.URL, obs.EvClassifiedLexical, now,
				"cohort", p.cohort, "score", scoreText, "tier", p.tier.String(), "verdict", verdict)
		} else {
			j.Record(su.URL, obs.EvClassified, now,
				"cohort", p.cohort, "score", scoreText, "verdict", verdict, "top", topAttr(p.contrib))
		}
	}
	if err := f.eval.observe(su.URL, p.cohort, flagged); err != nil {
		return err
	}
	if !flagged {
		return nil
	}
	f.State.AddFlagged(p.info.IsFWB)
	return f.admitRecord(p, score, tier, now)
}

// pageSignature is the page's kit-family signature, from the fetch
// stage's parse when the snapshot carries one.
func pageSignature(page features.Page) analysis.Signature {
	if page.Doc != nil {
		return analysis.DocSignature(page.Doc)
	}
	return analysis.PageSignature(page.HTML)
}

// admitRecord is the shared admission tail for a flagged URL: profile the
// target, collect blocklist/VT/moderation assessments, disclose through
// the reporting module, add the analysis record, and register it with the
// §4.4 monitor. For cascade short-circuits (tier "lexical") the page HTML
// is empty — the profile and signature work from the URL alone — and the
// record carries the tier so the analysis can separate lexical admissions
// from full-model ones.
func (f *FreePhish) admitRecord(p *probeResult, score float64, tier string, now time.Time) error {
	su, page := p.su, p.page
	j := f.Metrics.Journal
	asp := f.Metrics.Tracer.Start("assess")
	target, err := f.world.Intel.Profile(world.ProfileRequest{
		URL: su.URL, HTML: page.HTML, Doc: page.Doc, SharedAt: su.At,
		Platform: su.Platform, PostID: su.PostID,
	})
	if err != nil {
		asp.EndErr(err)
		return fmt.Errorf("core: profile %q: %w", su.URL, err)
	}
	if j != nil && target.InCTLog {
		j.Record(su.URL, obs.EvObservedCT, now, "cert", string(target.CertType))
	}
	rec := &analysis.Record{
		Target:          target,
		ClassifierScore: score,
		Classified:      true,
		ClassifiedAt:    now,
		Tier:            tier,
		Signature:       pageSignature(page),
	}
	verdicts, vt, err := f.world.Feeds.Assess(target)
	if err != nil {
		asp.EndErr(err)
		return fmt.Errorf("core: assess %q: %w", su.URL, err)
	}
	rec.Blocklist = verdicts
	rec.VTDetections = vt
	removed, at, err := f.world.Platform.AssessModeration(target)
	if err != nil {
		asp.EndErr(err)
		return fmt.Errorf("core: moderation %q: %w", su.URL, err)
	}
	if removed {
		rec.PlatformRemoved = true
		rec.PlatformRemovedAt = at
		f.Metrics.Takedowns.With("platform").Inc()
		if err := f.world.Platform.RemovePost(su.Platform, su.PostID, at); err != nil {
			asp.EndErr(err)
			return fmt.Errorf("core: remove post %q: %w", su.PostID, err)
		}
		if j != nil {
			j.Record(su.URL, obs.EvTakedown, at, "via", "platform")
		}
	}
	asp.End()
	// Reporting module (§4.3): disclose FWB attacks to the service; the
	// hosting provider handles self-hosted ones. Blocklists are never
	// reported to — that would contaminate the measurement. A failed
	// delivery surfaces in Outcome.Error, not as a pipeline error.
	rsp := f.Metrics.Tracer.Start("report")
	outcome, err := f.world.Reports.Disclose(target, now)
	rsp.EndErr(err)
	if err != nil {
		return fmt.Errorf("core: disclose %q: %w", su.URL, err)
	}
	recipient := "hosting-provider"
	if target.IsFWB() {
		f.State.AddReportSent()
		recipient = target.Service.Name
	}
	f.Metrics.Reports.With(recipient).Inc()
	if outcome.Acknowledged {
		f.Metrics.ReportAcks.With(recipient).Inc()
	}
	if j != nil {
		ack := "false"
		if outcome.Acknowledged {
			ack = "true"
		}
		if outcome.Error != "" {
			j.Record(su.URL, obs.EvReported, now,
				"recipient", recipient, "ack", ack, "err", outcome.Error)
		} else {
			j.Record(su.URL, obs.EvReported, now, "recipient", recipient, "ack", ack)
		}
	}
	rec.Report = outcome
	if outcome.Removed {
		rec.HostRemoved = true
		rec.HostRemovedAt = outcome.RemovedAt
		f.Metrics.Takedowns.With("host").Inc()
		if j != nil {
			j.Record(su.URL, obs.EvTakedown, outcome.RemovedAt, "via", "host")
		}
	}
	f.State.AddRecord(rec)
	f.Metrics.Records.Inc()
	if f.Config.MonitorInterval > 0 {
		f.scheduleMonitor(rec)
	}
	return nil
}
