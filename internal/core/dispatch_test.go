package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/faults"
	"freephish/internal/obs"
	"freephish/internal/retry"
	"freephish/internal/shard"
	"freephish/internal/shardrpc"
	"freephish/internal/state"
	"freephish/internal/world"
)

// snapshotRecorder is a shard.Runner that records, per shard, the Stats of
// every snapshot its inner runner returns.
type snapshotRecorder struct {
	shard.Runner
	mu    sync.Mutex
	stats map[int]Stats
}

func (r *snapshotRecorder) Run(ctx context.Context, spec shard.Spec, onCheckpoint func([]byte, time.Time) error) (*state.Snapshot, error) {
	snap, err := r.Runner.Run(ctx, spec, onCheckpoint)
	if err == nil {
		r.mu.Lock()
		r.stats[spec.Shard] = snap.Stats
		r.mu.Unlock()
	}
	return snap, err
}

// TestRemoteShardDeterminism is the `make verify-remote-shards` gate: the
// same seeded study with every shard shipped over shardrpc to a worker
// (core.SpecRunner behind shardrpc.Server — the exact stack
// cmd/freephish-worker serves) must merge into byte-identical records,
// journal, and stats at shards {2, 4}, on both backends, and under the
// default chaos profile. The worker derives its models' training input
// from the spec alone, so byte-identity here proves the whole dispatch
// boundary: spec serialization, the training key, checkpoint streaming,
// and snapshot wire transport.
func TestRemoteShardDeterminism(t *testing.T) {
	baseRec, baseJournal, baseStats, _ := shardRun(t, 1, 1, BackendInproc, nil)

	recorder := &snapshotRecorder{Runner: newTestRunner().Port()}
	srv := httptest.NewServer(&shardrpc.Server{Runner: recorder})
	defer srv.Close()

	defaultProf := faults.DefaultProfile()
	cases := []struct {
		shards  int
		backend string
		prof    *faults.Profile
	}{
		{2, BackendInproc, nil},
		{4, BackendInproc, nil},
		{2, BackendHTTP, nil},
		{4, BackendInproc, &defaultProf},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("remote shards=%d backend=%s chaos=%v", tc.shards, tc.backend, tc.prof != nil)
		recorder.stats = map[int]Stats{}
		rec, journal, stats, f := shardRun(t, tc.shards, 1, tc.backend, tc.prof, srv.URL)
		diffCascadeRun(t, label, baseRec, rec, baseJournal, journal, baseStats, stats)
		// Every shard really went over the wire: the dispatch counter names
		// the endpoint, none ran locally, and nothing failed over.
		if got := f.Metrics.ShardDispatched.With("local").Value(); got != 0 {
			t.Fatalf("%s: %v shards dispatched locally; want all remote", label, got)
		}
		// Non-vacuous: every shard's snapshot saw part, never all, of the
		// stream.
		if len(recorder.stats) != tc.shards {
			t.Fatalf("%s: worker returned %d shard snapshots, want %d", label, len(recorder.stats), tc.shards)
		}
		for i, st := range recorder.stats {
			if st.PostsSeen == 0 || st.PostsSeen >= baseStats.PostsSeen {
				t.Fatalf("%s: shard %d saw %d posts of %d total; partition is vacuous",
					label, i, st.PostsSeen, baseStats.PostsSeen)
			}
		}
		if got := f.Metrics.ShardDispatched.With(srv.URL).Value(); got != float64(tc.shards) {
			t.Fatalf("%s: freephish_shard_dispatched_total{runner=%s} = %v, want %d",
				label, srv.URL, got, tc.shards)
		}
		if got := f.Metrics.WorkerFailures.With(srv.URL).Value(); got != 0 {
			t.Fatalf("%s: %v worker failures on a healthy worker", label, got)
		}
	}
}

// TestShardAdoptionByteIdentical is half of the `make verify-adoption`
// gate: a local shard that dies mid-run past its first streamed
// checkpoint must NOT be retried from ordinal zero — the replacement
// child adopts the last checkpoint and resumes through the replay path,
// and the merged study is byte-identical to the undisturbed run.
func TestShardAdoptionByteIdentical(t *testing.T) {
	baseRec, baseJournal, baseStats, _ := shardRun(t, 2, 1, BackendInproc, nil)

	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Journal = true
	cfg.Shards = 2
	// A tight adoption stride so the failing attempt has streamed several
	// checkpoints by the time it dies.
	cfg.CheckpointEvery = 500
	f := newCached(cfg)
	var resumed *state.Checkpoint
	f.shardPrep = func(child *FreePhish, shard, attempt int) {
		if shard != 1 {
			return
		}
		switch attempt {
		case 0:
			// Dies at poll 1200 — after the checkpoints at cycles 500 and 1000.
			child.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
				return &failingStream{inner: s, failAt: 1200, err: errors.New("injected mid-run shard failure")}
			})
		case 1:
			resumed = child.Config.Resume
		}
	}
	j := f.Metrics.Journal
	study, err := f.Run()
	if err != nil {
		t.Fatalf("run with adopted shard failed: %v", err)
	}
	// The merge rebuilds the canonical lifecycle in place: the journal a
	// dashboard was handed before Run holds the merged lifecycle and the
	// coordinator's shard ops events.
	if f.Metrics.Journal != j {
		t.Fatal("Run replaced the journal; holders of the live one lose the merged lifecycle")
	}
	counts := j.Counts()
	if j.Len() == 0 || counts[obs.EvPosted] == 0 {
		t.Fatalf("journal holds %d lifecycle events after the merge, want the merged lifecycle", j.Len())
	}
	if counts[obs.EvShardDispatch] < 3 || counts[obs.EvShardDone] != 2 {
		t.Fatalf("journal counts %d %s and %d %s ops events, want 3 dispatches and 2 completions",
			counts[obs.EvShardDispatch], obs.EvShardDispatch, counts[obs.EvShardDone], obs.EvShardDone)
	}

	// The "never from-scratch" assertion: the replacement attempt started
	// from the dead attempt's checkpoint, not a fresh child.
	if resumed == nil {
		t.Fatal("replacement attempt ran from scratch despite streamed checkpoints")
	}
	if resumed.Cycles < cfg.CheckpointEvery {
		t.Fatalf("adopted checkpoint at cycle %d, want >= one full stride (%d)", resumed.Cycles, cfg.CheckpointEvery)
	}
	if got := f.Metrics.ShardAdopted.With("1").Value(); got != 1 {
		t.Fatalf("freephish_shard_adopted_total{shard=1} = %v, want 1", got)
	}
	if got := counts[obs.EvShardAdopt]; got != 1 {
		t.Fatalf("journal recorded %d %s ops events, want 1", got, obs.EvShardAdopt)
	}
	if got := counts[obs.EvShardCheckpoint]; got == 0 {
		t.Fatalf("no %s ops events; checkpoint streaming never surfaced", obs.EvShardCheckpoint)
	}
	// The child hands each cut over with its instant; the last cut and the
	// adoption must both name the adopted checkpoint's instant.
	want := resumed.SimNow.UTC().Format(time.RFC3339)
	var lastAt, from string
	for _, ev := range j.Tail(obs.DefaultJournalRing) {
		switch {
		case ev.Type == obs.EvShardCheckpoint && ev.Attrs["shard"] == "1" && ev.Attrs["attempt"] == "0":
			lastAt = ev.Attrs["at"]
		case ev.Type == obs.EvShardAdopt:
			from = ev.Attrs["from"]
		}
	}
	if lastAt != want || from != want {
		t.Fatalf("shard 1's last cut is dated %q and its adoption %q; the adopted checkpoint was cut at %s", lastAt, from, want)
	}

	var rec, journal bytes.Buffer
	if err := study.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&journal); err != nil {
		t.Fatal(err)
	}
	diffCascadeRun(t, "shard 1 adopted mid-run", baseRec, rec.Bytes(),
		baseJournal, journal.Bytes(), baseStats, f.Stats())
}

// TestRemoteShardAdoptionByteIdentical is the other half of the
// `make verify-adoption` gate: a remote worker that crashes mid-shard
// (connection aborted without a terminal frame) fails over to the local
// fallback runner, which adopts the last checkpoint frame the worker
// streamed before dying — byte-identically.
func TestRemoteShardAdoptionByteIdentical(t *testing.T) {
	baseRec, baseJournal, baseStats, _ := shardRun(t, 2, 1, BackendInproc, nil)

	server := &shardrpc.Server{Runner: newTestRunner().Port()}
	var killed int32
	server.OnCheckpointFrame = func(shardIndex, frameCount int) error {
		// Shard 1's first dispatch dies after its second checkpoint frame.
		if shardIndex == 1 && frameCount >= 2 && atomic.CompareAndSwapInt32(&killed, 0, 1) {
			return errors.New("injected worker crash")
		}
		return nil
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Journal = true
	cfg.Shards = 2
	cfg.CheckpointEvery = 500
	cfg.ShardWorkers = []string{srv.URL}
	f := newCached(cfg)
	var resumed *state.Checkpoint
	f.shardPrep = func(child *FreePhish, shard, attempt int) {
		if shard == 1 && attempt == 1 {
			resumed = child.Config.Resume
		}
	}
	study, err := f.Run()
	if err != nil {
		t.Fatalf("run with crashed worker failed: %v", err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("run with crashed worker failed verification: %v", err)
	}

	if atomic.LoadInt32(&killed) != 1 {
		t.Fatal("the kill seam never fired; the test is vacuous")
	}
	if resumed == nil {
		t.Fatal("failover ran from scratch despite checkpoint frames from the dead worker")
	}
	if got := f.Metrics.WorkerFailures.With(srv.URL).Value(); got != 1 {
		t.Fatalf("freephish_shard_worker_failures_total{endpoint=%s} = %v, want 1", srv.URL, got)
	}
	if got := f.Metrics.ShardAdopted.With("1").Value(); got != 1 {
		t.Fatalf("freephish_shard_adopted_total{shard=1} = %v, want 1", got)
	}
	// Both shards went to the worker first; only shard 1's replacement ran
	// locally.
	if got := f.Metrics.ShardDispatched.With(srv.URL).Value(); got != 2 {
		t.Fatalf("freephish_shard_dispatched_total{runner=%s} = %v, want 2", srv.URL, got)
	}
	if got := f.Metrics.ShardDispatched.With("local").Value(); got != 1 {
		t.Fatalf("freephish_shard_dispatched_total{runner=local} = %v, want 1", got)
	}
	// The worker's frames carry each cut's instant: shard 1's streamed
	// cuts are dated and strictly increasing, and the adoption names the
	// last of them, the instant of the checkpoint the replacement resumed.
	want := resumed.SimNow.UTC().Format(time.RFC3339)
	var ats []string
	var from string
	for _, ev := range f.Metrics.Journal.Tail(obs.DefaultJournalRing) {
		switch {
		case ev.Type == obs.EvShardCheckpoint && ev.Attrs["shard"] == "1" && ev.Attrs["attempt"] == "0":
			if ats = append(ats, ev.Attrs["at"]); ats[len(ats)-1] == "" || len(ats) > 1 && ats[len(ats)-1] <= ats[len(ats)-2] {
				t.Fatalf("shard 1's remote cuts are dated %q; want non-empty, strictly increasing instants", ats)
			}
		case ev.Type == obs.EvShardAdopt:
			from = ev.Attrs["from"]
		}
	}
	if len(ats) < 2 || ats[len(ats)-1] != want || from != want {
		t.Fatalf("shard 1's remote cuts are dated %q and its adoption %q; the adopted checkpoint was cut at %s", ats, from, want)
	}

	var rec, journal bytes.Buffer
	if err := study.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&journal); err != nil {
		t.Fatal(err)
	}
	diffCascadeRun(t, "worker crashed mid-shard", baseRec, rec.Bytes(),
		baseJournal, journal.Bytes(), baseStats, f.Stats())
}

// TestWorkerBreakerFailover pins the unreachable-fleet path: with every
// configured worker dead, each shard burns one transient dispatch failure
// (counted per endpoint, opening the breaker at the threshold) and falls
// back to a local child — the study still completes byte-identically,
// with no checkpoint to adopt because the workers never streamed one.
func TestWorkerBreakerFailover(t *testing.T) {
	baseRec, baseJournal, baseStats, _ := shardRun(t, 2, 1, BackendInproc, nil)

	// Reserve a real port, then close it: connections are refused instantly.
	dead := httptest.NewServer(nil)
	endpoint := dead.Listener.Addr().String()
	dead.Close()

	rec, journal, stats, f := shardRun(t, 2, 1, BackendInproc, nil, endpoint)
	diffCascadeRun(t, "all workers dead", baseRec, rec, baseJournal, journal, baseStats, stats)

	if got := f.Metrics.WorkerFailures.With(endpoint).Value(); got != 2 {
		t.Fatalf("freephish_shard_worker_failures_total{endpoint=%s} = %v, want 2 (one per shard)", endpoint, got)
	}
	// Both failures hit the same endpoint; at threshold 2 its breaker opened.
	if got := f.Metrics.BreakerEvents.With("worker|"+endpoint, "open").Value(); got != 1 {
		t.Fatalf("breaker open transitions for %s = %v, want 1", endpoint, got)
	}
	// Nothing was adopted (a refused dispatch streams no checkpoint), and
	// every shard finished on the local fallback.
	if got := f.Metrics.ShardAdopted.With("0").Value() + f.Metrics.ShardAdopted.With("1").Value(); got != 0 {
		t.Fatalf("%v shards adopted checkpoints; refused dispatches have none to adopt", got)
	}
	if got := f.Metrics.ShardDispatched.With(endpoint).Value(); got != 2 {
		t.Fatalf("freephish_shard_dispatched_total{runner=%s} = %v, want 2", endpoint, got)
	}
	if got := f.Metrics.ShardDispatched.With("local").Value(); got != 2 {
		t.Fatalf("freephish_shard_dispatched_total{runner=local} = %v, want 2", got)
	}
}

// infoLog is a SpecRunner logger that keeps every message.
type infoLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *infoLog) Info(msg string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, msg)
}

// TestSpecRunnerRejectsShardOutOfRange pins the runner's position guard
// through the worker's wire stack: a spec whose shard position lies outside
// [0, Shards) gets a definitive (non-transient) error frame before any
// model is trained, instead of an empty or whole-study snapshot.
func TestSpecRunnerRejectsShardOutOfRange(t *testing.T) {
	log := &infoLog{}
	runner := NewSpecRunner()
	runner.Logger = log
	srv := httptest.NewServer(&shardrpc.Server{Runner: runner.Port()})
	defer srv.Close()
	client := shardrpc.NewClient(srv.URL)
	coordinator := New(streamSweepConfig(1, 0, BackendInproc))
	for _, pos := range []struct{ shard, shards int }{{5, 2}, {2, 2}, {-1, 2}, {0, 0}} {
		spec := shard.Spec{ShardSpec: coordinator.shardSpec(0, 1)}
		spec.Shard, spec.Shards, spec.Fingerprint = pos.shard, pos.shards, ""
		snap, err := client.Run(context.Background(), spec, nil)
		if err == nil {
			t.Fatalf("shard %d/%d: runner returned a snapshot with %d records; want an error frame",
				pos.shard, pos.shards, len(snap.Records))
		}
		if retry.IsTransient(err) || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("shard %d/%d: err = %v (transient=%v); want a plain out-of-range error",
				pos.shard, pos.shards, err, retry.IsTransient(err))
		}
	}
	for _, msg := range log.msgs {
		if msg == "training models" {
			t.Fatal("runner trained models for an out-of-range spec")
		}
	}
}

// TestSpecRunnerRejectsOversizedSpec pins the runner's bounds through the
// worker's wire stack: a spec with any knob that sizes work above its
// bound (checkSpecBounds) gets a definitive (non-transient) error frame
// naming the field before anything is built or trained. Nothing runs at
// the refused values.
func TestSpecRunnerRejectsOversizedSpec(t *testing.T) {
	runner := NewSpecRunner()
	runner.train = func(trainKey, int) (*trainedModels, error) {
		t.Error("runner trained models for an oversized spec")
		return nil, errors.New("oversized spec trained")
	}
	srv := httptest.NewServer(&shardrpc.Server{Runner: runner.Port()})
	defer srv.Close()
	client := shardrpc.NewClient(srv.URL)
	coordinator := New(streamSweepConfig(1, 0, BackendInproc))
	for _, tc := range []struct {
		field string
		set   func(*shard.Spec)
	}{
		{"workers", func(s *shard.Spec) { s.Workers = 1 << 40 }},
		{"queue_depth", func(s *shard.Spec) { s.QueueDepth = 1 << 40 }},
		{"scale", func(s *shard.Spec) { s.Scale = 1e6 }},
		{"fwb_twitter", func(s *shard.Spec) { s.FWBTwitter = 1 << 40 }},
		{"fwb_facebook", func(s *shard.Spec) { s.FWBFacebook = 1 << 40 }},
		{"self_twitter", func(s *shard.Spec) { s.SelfTwitter = 1 << 40 }},
		{"self_facebook", func(s *shard.Spec) { s.SelfFacebook = 1 << 40 }},
		{"benign_per_phish", func(s *shard.Spec) { s.BenignPerPhish = 1e6 }},
		{"reshare_rate", func(s *shard.Spec) { s.ReshareRate = 1e6 }},
		{"duration/poll_interval", func(s *shard.Spec) { s.PollInterval = 1 }},
		{"monitor_horizon/monitor_interval", func(s *shard.Spec) { s.MonitorInterval = 1 }},
		{"train_per_class*scale", func(s *shard.Spec) { s.TrainPerClass = 1 << 40 }},
	} {
		spec := shard.Spec{ShardSpec: coordinator.shardSpec(0, 1)}
		spec.Shards = 1
		tc.set(&spec)
		spec.Fingerprint = specFingerprint(spec.ShardSpec)
		snap, err := client.Run(context.Background(), spec, nil)
		if err == nil {
			t.Fatalf("oversized %s: runner returned a snapshot with %d records; want an error frame", tc.field, len(snap.Records))
		}
		if retry.IsTransient(err) || !strings.Contains(err.Error(), "spec "+tc.field+" ") {
			t.Fatalf("oversized %s: err = %v (transient=%v); want a plain error naming %s", tc.field, err, retry.IsTransient(err), tc.field)
		}
	}
}

// TestLocalRunnerReusesCoordinatorModels pins the in-process runner's
// model source: a shard child rebuilt from its spec finds the
// coordinator's own trained models under its training key, so local
// shards never retrain.
func TestLocalRunnerReusesCoordinatorModels(t *testing.T) {
	cfg := streamSweepConfig(4, 0, BackendHTTP)
	cfg.Shards = 2
	setCascade(t, &cfg, "0.1,0.9")
	f := New(cfg)
	f.Model, f.BaseModel, f.Lexical = &baselines.StackDetector{}, &baselines.StackDetector{}, &baselines.LexicalScorer{}
	d := f.newDispatcher()
	d.local.train = func(trainKey, int) (*trainedModels, error) {
		t.Fatal("the local runner trained its own models instead of using the coordinator's")
		return nil, nil
	}
	child := New(Config{ShardSpec: f.shardSpec(1, d.stride)})
	m, err := d.local.trained(child.trainKey(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.model != f.Model || m.base != f.BaseModel || m.lexical != f.Lexical {
		t.Fatal("the local runner returned other models than the coordinator's")
	}
}

// TestSpecRunnerTrainsOncePerTrainingInput pins the runner's cache key:
// studies that differ only in window, chaos, journal, cascade thresholds
// or shard position share one training input, so a runner serving all
// of them trains once.
func TestSpecRunnerTrainsOncePerTrainingInput(t *testing.T) {
	log := &infoLog{}
	runner := newTestRunner()
	runner.Logger = log
	base := streamSweepConfig(1, 0, BackendInproc)
	base.Duration = 2 * 24 * time.Hour
	setCascade(t, &base, "0.1,0.9")
	prof := faults.DefaultProfile()
	variants := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.Duration = 3 * 24 * time.Hour },
		func(c *Config) { c.Faults = &prof },
		func(c *Config) { c.Journal = true },
		func(c *Config) { setCascade(t, c, "0.2,0.8") },
		func(c *Config) { c.Shards = 3 },
	}
	for i, vary := range variants {
		cfg := base
		vary(&cfg)
		if cfg.Shards == 0 {
			cfg.Shards = 2
		}
		spec := shard.Spec{ShardSpec: New(cfg).shardSpec(i%cfg.Shards, 1000)}
		if _, err := runner.Run(context.Background(), spec, nil); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	trainings := 0
	for _, msg := range log.msgs {
		if msg == "training models" {
			trainings++
		}
	}
	if trainings != 1 {
		t.Fatalf("runner trained %d times for one training input, want once", trainings)
	}
}
