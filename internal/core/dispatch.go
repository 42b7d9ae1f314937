package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

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
	// with the coordinator's trained models under their training key.
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
	d.local.models[f.trainKey()] = &trainedModels{model: f.Model, base: f.BaseModel, lexical: f.Lexical}
	if d.stride <= 0 {
		d.stride = f.Config.pollsPerDay()
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
		// frame decoder), so lastChk needs no lock, and each data slice is
		// handed over (shard.Runner), so it is kept without a copy. at
		// gives the cut's instant; it runs only when the journal is on.
		keep := func(data []byte, at func() string) {
			lastChk = data
			f.observeShardCheckpoint(i, attempt, at)
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
		snap, err := d.attempt(client, i, attempt, spec, keep)
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
func (d *dispatcher) attempt(client *shardrpc.Client, i, attempt int, spec shard.Spec, keep func(data []byte, at func() string)) (*state.Snapshot, error) {
	f := d.f
	if f.shardHook != nil {
		if err := f.shardHook(i, attempt); err != nil {
			return nil, err
		}
	}
	if client == nil {
		return d.local.run(spec, nil, func(child *FreePhish) {
			// A local child hands each cut over at the cut's instant, so
			// its clock dates the cut without decoding it.
			child.checkpointSink = func(data []byte) error {
				keep(data, func() string { return child.Clock.Now().UTC().Format(time.RFC3339) })
				return nil
			}
			child.listen = f.listen
			if f.shardPrep != nil {
				f.shardPrep(child, i, attempt)
			}
		})
	}
	var snap *state.Snapshot
	err := d.pol.Do(context.Background(), client.Name(), func() error {
		s, rerr := client.Run(context.Background(), spec, func(data []byte) error {
			keep(data, func() string { return cutInstant(data) })
			return nil
		})
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
	sp := f.Config.ShardSpec
	sp.Shard, sp.Shards, sp.CheckpointEvery = i, f.Config.Shards, stride
	sp.Fingerprint = specFingerprint(sp)
	return sp
}

// MaxSpecParallelism bounds a spec's Workers and QueueDepth. Both arrive
// over the network and size per-stage goroutine pools, channels and the
// trainers' parallelism, so SpecRunner refuses a spec above it before it
// builds or trains anything.
const MaxSpecParallelism = 1024

// SpecRunner is the one shard.Runner that executes shards: it rebuilds a
// complete framework from each spec, runs it to completion, audits its
// world, and snapshots it. The coordinator's in-process fallback and the
// worker daemon (cmd/freephish-worker, behind shardrpc.Server) run the
// same code. Trained models are cached per training input (trainKey) —
// training is a pure function of it, so a worker training from the spec
// yields byte-for-byte the models the coordinator holds, the coordinator's
// own runner starts with its models in the cache, and every later shard of
// any study with the same training input (whatever its window, chaos,
// journal, thresholds or shard count) skips the cost.
type SpecRunner struct {
	// Workers, when > 0, overrides the spec's probe-pool size with the
	// worker machine's own parallelism — byte-identity across Workers is
	// the repo's standing invariant, so the override is free.
	Workers int
	// Logger, when set, narrates training and run lifecycle.
	Logger interface {
		Info(msg string, args ...any)
	}

	// train fills the cache on a miss; nil means trainModels. Tests point
	// it at their package-wide cache.
	train func(trainKey, int) (*trainedModels, error)

	mu     sync.Mutex
	models map[trainKey]*trainedModels
}

// NewSpecRunner returns a SpecRunner with an empty model cache.
func NewSpecRunner() *SpecRunner {
	return &SpecRunner{models: make(map[trainKey]*trainedModels)}
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
	// Not transient: every runner would refuse the same position, and
	// the same bounds.
	if spec.Shards < 1 || spec.Shard < 0 || spec.Shard >= spec.Shards {
		return nil, fmt.Errorf("core: shard position %d/%d out of range", spec.Shard, spec.Shards)
	}
	if spec.Workers > MaxSpecParallelism {
		return nil, fmt.Errorf("core: spec workers %d exceeds the limit of %d", spec.Workers, MaxSpecParallelism)
	}
	if spec.QueueDepth > MaxSpecParallelism {
		return nil, fmt.Errorf("core: spec queue_depth %d exceeds the limit of %d", spec.QueueDepth, MaxSpecParallelism)
	}
	// The spec is one shard; its position rides in shardIndex/shardCount.
	// The observability hooks stay nil: the coordinator or worker daemon
	// owns registry and logging.
	cfg := Config{ShardSpec: spec.ShardSpec}
	cfg.Shard, cfg.Shards = 0, 1
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
	// Train before decoding Resume, so a spec whose Resume does not decode
	// still warms the cache.
	m, err := r.trained(child.trainKey(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	child.Model, child.BaseModel, child.Lexical = m.model, m.base, m.lexical
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

// trained returns the models for key, training them on the first call
// for it. Concurrent shards of one study wait for that one training.
func (r *SpecRunner) trained(key trainKey, workers int) (*trainedModels, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.models[key]; ok {
		return m, nil
	}
	if r.Logger != nil {
		r.Logger.Info("training models", "seed", key.Seed, "per_class", key.PerClass, "lexical", key.Lexical)
	}
	train := r.train
	if train == nil {
		train = trainModels
	}
	m, err := train(key, workers)
	if err != nil {
		return nil, err
	}
	if r.models == nil {
		r.models = make(map[trainKey]*trainedModels)
	}
	r.models[key] = m
	return m, nil
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

func (f *FreePhish) observeShardCheckpoint(shard, attempt int, at func() string) {
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvShardCheckpoint,
			"shard", itoa(shard), "attempt", itoa(attempt), "at", at())
	}
}

func (f *FreePhish) observeShardAdopt(shard, attempt int, runner string, chk []byte) {
	f.Metrics.ShardAdopted.With(itoa(shard)).Inc()
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvShardAdopt,
			"shard", itoa(shard), "attempt", itoa(attempt),
			"runner", runner, "from", cutInstant(chk))
	}
}

// cutInstant is the instant of the encoded checkpoint data as ops events
// print it, or "" when the bytes do not hold one.
func cutInstant(data []byte) string {
	t, err := state.PeekCheckpointInstant(data)
	if err != nil {
		return ""
	}
	return t.UTC().Format(time.RFC3339)
}

func (f *FreePhish) observeShardDone(shard, attempt int, runner string) {
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvShardDone,
			"shard", itoa(shard), "attempt", itoa(attempt), "runner", runner)
	}
}
