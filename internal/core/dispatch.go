package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/obs"
	"freephish/internal/retry"
	"freephish/internal/shard"
	"freephish/internal/shardrpc"
	"freephish/internal/state"
)

// Shard dispatch (the internal/shard boundary, coordinator side). The
// coordinator no longer runs shards directly: it builds a serializable
// shard.Spec per shard and hands it to a Runner — the in-process
// SpecRunner or a remote freephish-worker (the same SpecRunner behind
// shardrpc) reached through shardrpc.Client. Every runner streams
// periodic checkpoints back; when an attempt dies (mid-run failure, local
// panic, remote blackout, open breaker) the next attempt ADOPTS the last
// streamed checkpoint instead of replaying the sub-stream from ordinal
// zero — the resume replay path proves the resumed run byte-identical, so
// failover costs only the work since the last cut. Runner placement
// (which worker, or local) is the one thing that may vary run to run; the
// shard's output never does.

// dispatcher owns runner selection and the adoption loop for one sharded
// run. Safe for the coordinator's concurrent per-shard goroutines: the
// policy and clients are concurrency-safe, and all per-attempt state lives
// in runShard's frame.
type dispatcher struct {
	f *FreePhish
	// stride is the poll-cycle cadence of the checkpoints every runner
	// streams back (Config.CheckpointEvery, defaulting to one simulated
	// day) — the granularity of failover adoption.
	stride  int
	clients []*shardrpc.Client
	// local is the in-process fallback runner, its model cache seeded
	// with the coordinator's trained models.
	local *SpecRunner
	// pol guards remote dispatch: single-attempt Do calls (the adoption
	// loop owns retries) so every transport failure is a give-up the
	// per-endpoint breaker counts; an endpoint that keeps failing opens and
	// pick routes around it.
	pol *retry.Policy
}

// newDispatcher wires the run's dispatcher from Config.ShardWorkers. Call
// it after training: the local runner starts with the trained models.
func (f *FreePhish) newDispatcher() *dispatcher {
	d := &dispatcher{f: f, stride: f.Config.CheckpointEvery, local: NewSpecRunner()}
	// The coordinator has no shard position, so its fingerprint is exactly
	// trainedFor's cache key.
	d.local.models[f.fingerprint()] = &workerModels{model: f.Model, base: f.BaseModel, lexical: f.Lexical}
	if d.stride <= 0 {
		d.stride = int(24 * time.Hour / f.Config.PollInterval)
		if d.stride < 1 {
			d.stride = 1
		}
	}
	for _, ep := range f.Config.ShardWorkers {
		if ep = strings.TrimSpace(ep); ep != "" {
			d.clients = append(d.clients, shardrpc.NewClient(ep))
		}
	}
	if len(d.clients) > 0 {
		d.pol = &retry.Policy{
			MaxAttempts:      1,
			Seed:             f.Config.Seed,
			BreakerThreshold: 2,
			BreakerCooldown:  30 * time.Second,
			OnBreaker: func(key string, open bool) {
				transition := "close"
				if open {
					transition = "open"
				}
				f.Metrics.BreakerEvents.With("worker|"+key, transition).Inc()
				if j := f.Metrics.Journal; j != nil {
					j.RecordOps("", obs.EvBreaker,
						"key", "worker|"+key, "transition", transition)
				}
			},
		}
	}
	return d
}

// pick selects the runner for one shard attempt: workers first, rotated by
// (shard, attempt) so retries move to a different endpoint and shards
// spread across the fleet, skipping endpoints whose breaker is open; once
// a shard has burned one attempt per worker (or no workers are usable) it
// falls back to a local child, which always exists.
func (d *dispatcher) pick(i, attempt int) *shardrpc.Client {
	n := len(d.clients)
	if n == 0 || attempt >= n {
		return nil
	}
	for k := 0; k < n; k++ {
		c := d.clients[(i+attempt+k)%n]
		if d.pol.BreakerOpen(c.Name()) {
			continue
		}
		return c
	}
	return nil
}

// runShard drives shard i to completion through the dispatch boundary,
// adopting the last streamed checkpoint across attempts.
func (d *dispatcher) runShard(i int) (*state.Snapshot, error) {
	f := d.f
	var lastErr error
	var lastChk []byte
	for attempt := 0; attempt < shardAttempts; attempt++ {
		spec := shard.Spec{ShardSpec: f.shardSpec(i, d.stride), Resume: lastChk}
		adopted := len(lastChk) > 0
		// Both runners deliver checkpoints synchronously from this shard's
		// goroutine (the local child's driver loop, or the RPC client's
		// frame decoder), so lastChk needs no lock.
		onChk := func(data []byte) error {
			lastChk = append(lastChk[:0], data...)
			f.observeShardCheckpoint(i, attempt, data)
			return nil
		}
		client := d.pick(i, attempt)
		runner := "local"
		if client != nil {
			runner = client.Name()
		}
		f.observeShardDispatch(i, attempt, runner, adopted)
		if adopted {
			f.observeShardAdopt(i, attempt, runner, spec.Resume)
		}
		snap, err := d.attempt(client, i, attempt, spec, onChk)
		if err != nil {
			f.observeShardRetry(i, attempt, err)
			lastErr = err
			continue
		}
		f.observeShardDone(i, attempt, runner)
		return snap, nil
	}
	return nil, fmt.Errorf("core: shard %d/%d failed after %d attempts: %w",
		i, f.Config.Shards, shardAttempts, lastErr)
}

// attempt runs one attempt of shard i on client, or in-process when
// client is nil. Both paths end in a SpecRunner: the local one shares the
// coordinator's trained models and threads its test seams into the child.
func (d *dispatcher) attempt(client *shardrpc.Client, i, attempt int, spec shard.Spec, onChk func([]byte) error) (*state.Snapshot, error) {
	f := d.f
	if f.shardHook != nil {
		if err := f.shardHook(i, attempt); err != nil {
			return nil, err
		}
	}
	if client == nil {
		return d.local.run(spec, onChk, func(child *FreePhish) {
			child.listen = f.listen
			if f.shardPrep != nil {
				f.shardPrep(child, i, attempt)
			}
		})
	}
	var snap *state.Snapshot
	err := d.pol.Do(context.Background(), client.Name(), func() error {
		s, rerr := client.Run(context.Background(), spec, onChk)
		snap = s
		return rerr
	})
	if err != nil {
		f.Metrics.WorkerFailures.With(client.Name()).Inc()
	}
	return snap, err
}

// shardSpec serializes shard i's dispatch unit from this coordinator's
// configuration. The fingerprint is the spec's own — exactly what the
// runner's rebuilt child will compute — so a drifted worker refuses the
// spec instead of running a different study.
func (f *FreePhish) shardSpec(i, stride int) state.ShardSpec {
	sp := studySpec(f.Config)
	sp.Shard, sp.Shards, sp.CheckpointEvery = i, f.Config.Shards, stride
	sp.Fingerprint = specFingerprint(sp)
	return sp
}

// SpecRunner is the one shard.Runner that executes shards: it rebuilds a
// complete framework from each spec, runs it to completion, audits its
// world, and snapshots it. The coordinator's in-process fallback and the
// worker daemon (cmd/freephish-worker, behind shardrpc.Server) run the
// same code. Trained models are cached per study fingerprint — training is
// bit-identical per seed, so a worker retraining from the spec yields
// byte-for-byte the models the coordinator holds, the coordinator's own
// runner starts with its models in the cache, and the second shard of the
// same study skips the cost.
type SpecRunner struct {
	// Workers, when > 0, overrides the spec's probe-pool size with the
	// worker machine's own parallelism — byte-identity across Workers is
	// the repo's standing invariant, so the override is free.
	Workers int
	// Logger, when set, narrates training and run lifecycle.
	Logger interface {
		Info(msg string, args ...any)
	}

	mu     sync.Mutex
	models map[string]*workerModels
}

// workerModels is one cached training result.
type workerModels struct {
	model   *baselines.StackDetector
	base    *baselines.StackDetector
	lexical *baselines.LexicalScorer
}

// NewSpecRunner returns a SpecRunner with an empty model cache.
func NewSpecRunner() *SpecRunner {
	return &SpecRunner{models: make(map[string]*workerModels)}
}

// Name implements shard.Runner.
func (r *SpecRunner) Name() string { return "worker" }

// Run implements shard.Runner: rebuild, verify the fingerprint, train (or
// reuse cached models), run, audit, snapshot.
func (r *SpecRunner) Run(ctx context.Context, spec shard.Spec, onCheckpoint func(data []byte) error) (*state.Snapshot, error) {
	return r.run(spec, onCheckpoint, nil)
}

// run is Run with prep, when non-nil, invoked on the built child just
// before it runs. A panic inside the child (the local analogue of a
// worker crash) is converted to an error so the adoption loop can hand
// the streamed checkpoint to a replacement instead of unwinding the study.
func (r *SpecRunner) run(spec shard.Spec, onCheckpoint func(data []byte) error, prep func(child *FreePhish)) (snap *state.Snapshot, err error) {
	// Not transient: every runner would refuse the same position.
	if spec.Shards < 1 || spec.Shard < 0 || spec.Shard >= spec.Shards {
		return nil, fmt.Errorf("core: shard position %d/%d out of range", spec.Shard, spec.Shards)
	}
	cfg := configFromSpec(spec.ShardSpec)
	if r.Workers > 0 {
		cfg.Workers = r.Workers
	}
	child := New(cfg)
	defer child.Close()
	defer func() {
		if rec := recover(); rec != nil {
			snap, err = nil, fmt.Errorf("core: shard %d panicked: %v", spec.Shard, rec)
		}
	}()
	child.shardIndex = spec.Shard
	child.shardCount = spec.Shards
	if spec.Fingerprint != "" {
		if got := child.fingerprint(); got != spec.Fingerprint {
			// Not transient: every retry against this worker build would
			// compute the same different study.
			return nil, fmt.Errorf("core: spec fingerprint mismatch (worker build or spec drift):\n  spec:   %s\n  worker: %s", spec.Fingerprint, got)
		}
	}
	m, err := r.trainedFor(child.Config)
	if err != nil {
		return nil, err
	}
	child.Model = m.model
	child.BaseModel = m.base
	child.sharedModels = true
	if cfg.Cascade != nil && m.lexical != nil {
		child.Lexical = m.lexical
		// The cascade pairs the cached scorer with THIS spec's thresholds —
		// never cached, so two studies differing only in thresholds cannot
		// poison each other through the model cache.
		child.cascade = &baselines.Cascade{
			Scorer:      m.lexical,
			BenignBelow: cfg.Cascade.BenignBelow,
			PhishAbove:  cfg.Cascade.PhishAbove,
		}
	}
	child.checkpointSink = onCheckpoint
	if len(spec.Resume) > 0 {
		chk, derr := state.DecodeCheckpoint(spec.Resume)
		if derr != nil {
			return nil, fmt.Errorf("core: shard %d adopt checkpoint: %w", spec.Shard, derr)
		}
		child.Config.Resume = chk
	}
	if prep != nil {
		prep(child)
	}
	if r.Logger != nil {
		r.Logger.Info("running shard spec",
			"shard", spec.Shard, "shards", spec.Shards,
			"seed", spec.Seed, "resume", len(spec.Resume) > 0)
	}
	if _, err := child.Run(); err != nil {
		return nil, err
	}
	if err := child.auditRecords(true); err != nil {
		return nil, fmt.Errorf("core: shard %d/%d audit: %w", spec.Shard, spec.Shards, err)
	}
	var events []obs.Event
	if j := child.Metrics.Journal; j != nil {
		events = j.Events()
	}
	return child.State.Snapshot(events), nil
}

// trainedFor returns (training if needed) the models for cfg's study. The
// cache key is the study fingerprint with the shard position cleared; on
// a miss a donor framework that never runs trains them, so the cached
// models carry no per-run observers (the shard children mark them shared).
func (r *SpecRunner) trainedFor(cfg Config) (*workerModels, error) {
	key := specFingerprint(studySpec(cfg))
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.models[key]; ok {
		return m, nil
	}
	if r.Logger != nil {
		r.Logger.Info("training models", "fingerprint", key)
	}
	donor := New(cfg)
	if err := donor.Train(); err != nil {
		return nil, err
	}
	m := &workerModels{model: donor.Model, base: donor.BaseModel, lexical: donor.Lexical}
	if r.models == nil {
		r.models = make(map[string]*workerModels)
	}
	r.models[key] = m
	return m, nil
}

// studySpec is the one mapping from Config to the wire spec: every
// determinism-relevant knob plus the deployment shape (Backend, Workers,
// QueueDepth, ...) a worker should reproduce. The shard position and the
// fingerprint are the caller's; configFromSpec inverts it, and
// specFingerprint derives the study fingerprint from it.
func studySpec(cfg Config) state.ShardSpec {
	sp := state.ShardSpec{
		Seed:              cfg.Seed,
		Epoch:             cfg.Epoch,
		Duration:          cfg.Duration,
		FWBTwitter:        cfg.FWBTwitter,
		FWBFacebook:       cfg.FWBFacebook,
		SelfTwitter:       cfg.SelfTwitter,
		SelfFacebook:      cfg.SelfFacebook,
		BenignPerPhish:    cfg.BenignPerPhish,
		Scale:             cfg.Scale,
		PollInterval:      cfg.PollInterval,
		TrainPerClass:     cfg.TrainPerClass,
		GrowthExponent:    cfg.GrowthExponent,
		MonitorInterval:   cfg.MonitorInterval,
		ReshareRate:       cfg.ReshareRate,
		PollQuota:         cfg.PollQuota,
		PollQuotaRate:     cfg.PollQuotaRate,
		Workers:           cfg.Workers,
		QueueDepth:        cfg.QueueDepth,
		SnapshotCacheSize: cfg.SnapshotCacheSize,
		Backend:           cfg.Backend,
		Faults:            cfg.Faults,
		Journal:           cfg.Journal,
		JournalRing:       cfg.JournalRing,
		CheckpointEvery:   cfg.CheckpointEvery,
	}
	if cfg.Cascade != nil {
		sp.CascadeOn = true
		sp.CascadeBenignBelow = cfg.Cascade.BenignBelow
		sp.CascadePhishAbove = cfg.Cascade.PhishAbove
	}
	return sp
}

// configFromSpec inverts studySpec: rebuild the runnable Config on the
// runner side. Shards is pinned to 1 (the spec IS one shard; the partition
// rides in shardIndex/shardCount) and the observability hooks stay nil —
// the coordinator or worker daemon owns registry and logging.
func configFromSpec(sp state.ShardSpec) Config {
	cfg := Config{
		Seed:              sp.Seed,
		Epoch:             sp.Epoch,
		Duration:          sp.Duration,
		FWBTwitter:        sp.FWBTwitter,
		FWBFacebook:       sp.FWBFacebook,
		SelfTwitter:       sp.SelfTwitter,
		SelfFacebook:      sp.SelfFacebook,
		BenignPerPhish:    sp.BenignPerPhish,
		Scale:             sp.Scale,
		PollInterval:      sp.PollInterval,
		TrainPerClass:     sp.TrainPerClass,
		GrowthExponent:    sp.GrowthExponent,
		MonitorInterval:   sp.MonitorInterval,
		ReshareRate:       sp.ReshareRate,
		PollQuota:         sp.PollQuota,
		PollQuotaRate:     sp.PollQuotaRate,
		Workers:           sp.Workers,
		QueueDepth:        sp.QueueDepth,
		SnapshotCacheSize: sp.SnapshotCacheSize,
		Backend:           sp.Backend,
		Faults:            sp.Faults,
		Journal:           sp.Journal,
		JournalRing:       sp.JournalRing,
		Shards:            1,
		CheckpointEvery:   sp.CheckpointEvery,
	}
	if cfg.Backend == "" {
		cfg.Backend = BackendInproc
	}
	if sp.CascadeOn {
		cfg.Cascade = &CascadeConfig{
			BenignBelow: sp.CascadeBenignBelow,
			PhishAbove:  sp.CascadePhishAbove,
		}
	}
	return cfg
}

// Shard lifecycle ops events (ring-only — see obs.Journal's class
// contract; none of these can perturb the canonical record).

func (f *FreePhish) observeShardDispatch(shard, attempt int, runner string, adopted bool) {
	f.Metrics.ShardDispatched.With(runner).Inc()
	if j := f.Metrics.Journal; j != nil {
		adoptedStr := "false"
		if adopted {
			adoptedStr = "true"
		}
		j.RecordOps("", obs.EvShardDispatch,
			"shard", itoa(shard), "attempt", itoa(attempt),
			"runner", runner, "adopted", adoptedStr)
	}
}

func (f *FreePhish) observeShardCheckpoint(shard, attempt int, data []byte) {
	if j := f.Metrics.Journal; j != nil {
		at := ""
		if t, err := state.PeekCheckpointInstant(data); err == nil {
			at = t.UTC().Format(time.RFC3339)
		}
		j.RecordOps("", obs.EvShardCheckpoint,
			"shard", itoa(shard), "attempt", itoa(attempt), "at", at)
	}
}

func (f *FreePhish) observeShardAdopt(shard, attempt int, runner string, chk []byte) {
	f.Metrics.ShardAdopted.With(itoa(shard)).Inc()
	if j := f.Metrics.Journal; j != nil {
		from := ""
		if t, err := state.PeekCheckpointInstant(chk); err == nil {
			from = t.UTC().Format(time.RFC3339)
		}
		j.RecordOps("", obs.EvShardAdopt,
			"shard", itoa(shard), "attempt", itoa(attempt),
			"runner", runner, "from", from)
	}
}

func (f *FreePhish) observeShardDone(shard, attempt int, runner string) {
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvShardDone,
			"shard", itoa(shard), "attempt", itoa(attempt), "runner", runner)
	}
}
