package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/world"
)

// shardConfig is the traced sweep study split across the given shard
// count, dispatched to the given worker endpoints when any are listed.
func shardConfig(shards, workers int, backend string, prof *faults.Profile, endpoints ...string) Config {
	cfg := streamSweepConfig(workers, 0, backend)
	cfg.Journal = true
	cfg.Faults = prof
	cfg.Shards = shards
	cfg.ShardWorkers = endpoints
	return cfg
}

// shardRun executes one traced sharded study and returns the study records
// JSONL, the canonical journal JSONL, the run's stats, and the framework
// (for observation comparison).
func shardRun(t *testing.T, shards, workers int, backend string, prof *faults.Profile, endpoints ...string) (records, journal []byte, stats Stats, f *FreePhish) {
	t.Helper()
	f = newCached(shardConfig(shards, workers, backend, prof, endpoints...))
	label := fmt.Sprintf("shards=%d workers=%d backend=%s endpoints=%v", shards, workers, backend, endpoints)
	records, journal, stats = runTraced(t, label, f)
	return records, journal, stats, f
}

// runTraced runs f, verifies it, and returns its records JSONL, canonical
// journal JSONL, and stats.
func runTraced(t *testing.T, label string, f *FreePhish) (records, journal []byte, stats Stats) {
	t.Helper()
	study, err := f.Run()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("%s failed verification: %v", label, err)
	}
	var rbuf, jbuf bytes.Buffer
	if err := study.WriteJSONL(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	return rbuf.Bytes(), jbuf.Bytes(), f.Stats()
}

// TestShardDeterminism is the `make verify-shards` gate: the same seeded
// study split across 1, 2, 4, and 8 sub-stream shards — each shard a
// complete framework with its own clock, world, and pipeline — must merge
// into byte-identical study records, a byte-identical canonical journal,
// and identical stats. The posting schedule partitions by global event
// ordinal, and every stateful outcome is drawn from RNG streams keyed by
// ordinal or URL, so which shard executes an event must be unobservable.
func TestShardDeterminism(t *testing.T) {
	baseRec, baseJournal, baseStats, baseF := shardRun(t, 1, 1, BackendInproc, nil)
	if len(baseRec) == 0 {
		t.Fatal("baseline study produced no records")
	}
	if baseStats.PostsSeen < 16 {
		t.Fatalf("PostsSeen = %d; too little traffic to exercise the partition", baseStats.PostsSeen)
	}

	for _, shards := range []int{2, 4, 8} {
		label := fmt.Sprintf("inproc shards=%d", shards)
		f := newCached(shardConfig(shards, 1, BackendInproc, nil))
		children := make([]*FreePhish, shards)
		f.shardPrep = func(child *FreePhish, shard, _ int) { children[shard] = child }
		rec, journal, stats := runTraced(t, label, f)
		if got := f.Metrics.ShardDispatched.With("local").Value(); got != float64(shards) {
			t.Fatalf("%s: freephish_shard_dispatched_total{runner=local} = %v, want %d", label, got, shards)
		}
		// Non-vacuous: the partition actually split the traffic — no shard's
		// snapshot saw the whole stream.
		for i, child := range children {
			if got := child.State.Snapshot(nil).Stats.PostsSeen; got == 0 || got >= baseStats.PostsSeen {
				t.Fatalf("%s: shard %d saw %d posts of %d total; partition is vacuous",
					label, i, got, baseStats.PostsSeen)
			}
		}
		diffCascadeRun(t, label, baseRec, rec, baseJournal, journal, baseStats, stats)
		if !reflect.DeepEqual(baseF.Observations(), f.Observations()) {
			t.Fatalf("%s: monitor observations diverge from the 1-shard run", label)
		}
	}

	// Shards compose with pipeline parallelism inside each shard, with the
	// http backend (every shard gets its own loopback servers), and with
	// the default chaos profile (absorbed by the retry layer per shard).
	rec, journal, stats, _ := shardRun(t, 4, 8, BackendInproc, nil)
	diffCascadeRun(t, "inproc shards=4 workers=8", baseRec, rec, baseJournal, journal, baseStats, stats)

	rec, journal, stats, _ = shardRun(t, 2, 4, BackendHTTP, nil)
	diffCascadeRun(t, "http shards=2 workers=4", baseRec, rec, baseJournal, journal, baseStats, stats)

	prof := faults.DefaultProfile()
	rec, journal, stats, _ = shardRun(t, 4, 4, BackendInproc, &prof)
	diffCascadeRun(t, "inproc shards=4 workers=4 chaos=default", baseRec, rec, baseJournal, journal, baseStats, stats)
}

// TestShardChildrenObserveClassifyStages pins the classify stage's own
// timing: every in-process shard child fills its extract and infer
// histograms, although it shares its models with its siblings.
func TestShardChildrenObserveClassifyStages(t *testing.T) {
	f := newCached(shardConfig(2, 2, BackendInproc, nil))
	var mu sync.Mutex
	children := map[int]*FreePhish{}
	f.shardPrep = func(child *FreePhish, shard, attempt int) {
		mu.Lock()
		defer mu.Unlock()
		children[shard] = child
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("%d shard children ran in-process, want 2", len(children))
	}
	for i, c := range children {
		extract, infer := c.Metrics.ExtractSeconds.Count(), c.Metrics.InferSeconds.Count()
		if extract == 0 || infer != extract {
			t.Errorf("shard %d: %d extract and %d infer observations, want equal and > 0", i, extract, infer)
		}
	}
}

// TestShardRetryReplaysExactly exercises the coordinator-level retry: a
// shard whose first attempts die is re-run from a fresh child, and
// because its sub-stream is a pure function of (seed, shard index) the
// retried run must produce the same bytes as an undisturbed one.
func TestShardRetryReplaysExactly(t *testing.T) {
	baseRec, baseJournal, baseStats, _ := shardRun(t, 2, 1, BackendInproc, nil)

	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Journal = true
	cfg.Shards = 2
	f := newCached(cfg)
	failures := 0
	f.shardHook = func(shard, attempt int) error {
		// Shard 1 dies on every attempt but its last.
		if shard == 1 && attempt < shardAttempts-1 {
			failures++
			return errors.New("injected shard failure")
		}
		return nil
	}
	study, err := f.Run()
	if err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	if failures != shardAttempts-1 {
		t.Fatalf("hook injected %d failures, want %d", failures, shardAttempts-1)
	}
	var rbuf, jbuf bytes.Buffer
	if err := study.WriteJSONL(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	diffCascadeRun(t, "shard 1 retried", baseRec, rbuf.Bytes(), baseJournal, jbuf.Bytes(), baseStats, f.Stats())
}

// TestShardRetryExhaustionFails pins the failure surface: a shard that
// dies on every attempt fails the whole run with an error naming the
// shard, and no partial merge leaks into the coordinator's state.
func TestShardRetryExhaustionFails(t *testing.T) {
	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Shards = 2
	f := newCached(cfg)
	injected := errors.New("injected permanent failure")
	f.shardHook = func(shard, attempt int) error {
		if shard == 1 {
			return injected
		}
		return nil
	}
	_, err := f.Run()
	if err == nil {
		t.Fatal("run succeeded despite a permanently failing shard")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("error does not wrap the shard's failure: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1/2") {
		t.Fatalf("error does not name the failing shard: %v", err)
	}
	if len(f.State.Records()) != 0 {
		t.Fatalf("failed run leaked %d records into the coordinator", len(f.State.Records()))
	}
}

// backdatedStream reports every post as shared a day before the epoch — a
// record no valid run can hold.
type backdatedStream struct {
	inner world.URLStream
	epoch time.Time
}

func (s backdatedStream) Poll(now time.Time) ([]crawler.StreamedURL, error) {
	urls, err := s.inner.Poll(now)
	for i := range urls {
		urls[i].At = s.epoch.Add(-24 * time.Hour)
	}
	return urls, err
}

// TestShardAuditFailureFailsAttempt pins the per-shard audit: a shard
// whose records break an invariant fails its attempt instead of returning
// a snapshot, so a shard that does so on every attempt fails the run and
// nothing of it reaches the coordinator.
func TestShardAuditFailureFailsAttempt(t *testing.T) {
	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Shards = 2
	f := newCached(cfg)
	f.shardPrep = func(child *FreePhish, shard, _ int) {
		if shard == 1 {
			child.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
				return backdatedStream{inner: s, epoch: child.Config.Epoch}
			})
		}
	}
	_, err := f.Run()
	if err == nil || !strings.Contains(err.Error(), "shard 1/2 audit") || !strings.Contains(err.Error(), "outside the window") {
		t.Fatalf("run = %v, want shard 1's audit failure", err)
	}
	if got := f.Metrics.ShardRetries.With("1").Value(); got != shardAttempts {
		t.Fatalf("freephish_shard_retries_total{shard=1} = %v, want %d failed attempts", got, shardAttempts)
	}
	if got := f.Metrics.ShardRetries.With("0").Value(); got != 0 {
		t.Fatalf("freephish_shard_retries_total{shard=0} = %v, want 0", got)
	}
	if len(f.State.Records()) != 0 {
		t.Fatalf("failed run leaked %d records into the coordinator", len(f.State.Records()))
	}
}
