package core

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/obs"
	"freephish/internal/world"
)

// Regression tests for the leaky, invisible shard-retry path: a failed
// shard attempt must be fully closed (listeners, keep-alive sockets,
// server goroutines) before the coordinator builds its replacement, and
// every re-run must be observable — a freephish_shard_retries_total
// sample and an ops-class journal event — instead of silently re-paying a
// shard's worth of work.

// countedListener decrements the open-listener gauge exactly once on
// Close (net/http closes listeners redundantly on Shutdown).
type countedListener struct {
	net.Listener
	open *int64
	once sync.Once
}

func (l *countedListener) Close() error {
	l.once.Do(func() { atomic.AddInt64(l.open, -1) })
	return l.Listener.Close()
}

func TestShardRetryDoesNotLeak(t *testing.T) {
	// Baseline for byte-identity: the same sharded study with no failures.
	cleanCfg := streamSweepConfig(1, 0, BackendHTTP)
	cleanCfg.Journal = true
	cleanCfg.Shards = 2
	clean := newCached(cleanCfg)
	cleanStudy, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	var cleanRec, cleanJournal bytes.Buffer
	if err := cleanStudy.WriteJSONL(&cleanRec); err != nil {
		t.Fatal(err)
	}
	if err := clean.Metrics.Journal.WriteJSONL(&cleanJournal); err != nil {
		t.Fatal(err)
	}

	goBase := runtime.NumGoroutine()

	cfg := streamSweepConfig(1, 0, BackendHTTP)
	cfg.Journal = true
	cfg.Shards = 2
	f := newCached(cfg)
	var open int64
	f.listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		atomic.AddInt64(&open, 1)
		return &countedListener{Listener: ln, open: &open}, nil
	}
	// Shard 1's first two attempts die mid-run — servers up, pipeline
	// flowing, half the poll schedule done — the worst case for cleanup.
	const failedAttempts = 2
	failures := 0
	f.shardPrep = func(child *FreePhish, shard, attempt int) {
		if shard != 1 || attempt >= failedAttempts {
			return
		}
		failures++
		child.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
			return &failingStream{inner: s, failAt: 20, err: errors.New("injected mid-run shard failure")}
		})
	}
	study, err := f.Run()
	if err != nil {
		t.Fatalf("sharded run with retried shard failed: %v", err)
	}
	if failures != failedAttempts {
		t.Fatalf("prep hook armed %d failures, want %d", failures, failedAttempts)
	}

	// The retried study is byte-identical to the undisturbed one.
	var rec, journal bytes.Buffer
	if err := study.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&journal); err != nil {
		t.Fatal(err)
	}
	diffCascadeRun(t, "shard 1 failed mid-run twice", cleanRec.Bytes(), rec.Bytes(),
		cleanJournal.Bytes(), journal.Bytes(), clean.Stats(), f.Stats())

	// No leaked listeners: every bind across every attempt — including the
	// two killed children — was closed.
	if n := atomic.LoadInt64(&open); n != 0 {
		t.Fatalf("%d listeners still open after the run; failed shard attempts leak", n)
	}
	// No leaked goroutines: server loops and keep-alive connection loops
	// from the killed attempts must wind down (asynchronously, so poll).
	deadline := time.Now().Add(10 * time.Second)
	slack := goBase + 3
	for runtime.NumGoroutine() > slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > slack {
		t.Fatalf("%d goroutines alive after the run, baseline %d; failed shard attempts leak", n, goBase)
	}

	// The retries are visible: one counter sample per re-run shard and one
	// ops event per failed attempt on the live journal.
	if got := f.Metrics.ShardRetries.With("1").Value(); got != failedAttempts {
		t.Fatalf("freephish_shard_retries_total{shard=1} = %v, want %d", got, failedAttempts)
	}
	if got := f.Metrics.ShardRetries.With("0").Value(); got != 0 {
		t.Fatalf("freephish_shard_retries_total{shard=0} = %v, want 0", got)
	}
	if got := f.Metrics.Journal.Counts()[obs.EvShardRetry]; got != failedAttempts {
		t.Fatalf("journal recorded %d %s ops events, want %d", got, obs.EvShardRetry, failedAttempts)
	}
}

// TestShardCoordinatorFailureClosesSiblings pins the runSharded error
// path: when one shard exhausts its attempts, the siblings that completed
// must still be closed instead of returning with their resources
// abandoned.
func TestShardCoordinatorFailureClosesSiblings(t *testing.T) {
	cfg := streamSweepConfig(1, 0, BackendHTTP)
	cfg.Shards = 2
	f := newCached(cfg)
	var open int64
	f.listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		atomic.AddInt64(&open, 1)
		return &countedListener{Listener: ln, open: &open}, nil
	}
	injected := errors.New("injected permanent failure")
	f.shardHook = func(shard, attempt int) error {
		if shard == 1 {
			return injected
		}
		return nil
	}
	if _, err := f.Run(); !errors.Is(err, injected) {
		t.Fatalf("run = %v, want the injected permanent failure", err)
	}
	if n := atomic.LoadInt64(&open); n != 0 {
		t.Fatalf("%d listeners still open after coordinator failure; siblings leak", n)
	}
}
