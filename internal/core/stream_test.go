package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/obs"
	"freephish/internal/world"
)

// wrapStream adapts a URL-stream decorator to the wrapWorld seam.
func wrapStream(wrap func(world.URLStream) world.URLStream) func(world.World) world.World {
	return func(w world.World) world.World {
		w.Stream = wrap(w.Stream)
		return w
	}
}

// failingStream wraps the real URL stream and fails one designated poll —
// the seam TestRunEndsImmediatelyOnPollError injects through wrapWorld.
type failingStream struct {
	inner  world.URLStream
	polls  int
	failAt int
	err    error
}

func (s *failingStream) Poll(now time.Time) ([]crawler.StreamedURL, error) {
	s.polls++
	if s.polls == s.failAt {
		return nil, s.err
	}
	return s.inner.Poll(now)
}

// TestRunEndsImmediatelyOnPollError is the regression test for the
// slow-failure bug: a pollOnce error used to only set pollErr while the sim
// clock kept ticking through the entire window plus the 7-day tail before
// the error surfaced. Run must now cancel the poll subscription and stop
// stepping the clock at the failing cycle.
func TestRunEndsImmediatelyOnPollError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	const failAt = 5
	fs := &failingStream{failAt: failAt, err: errors.New("injected poll failure")}
	f := newCached(cfg)
	f.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
		fs.inner = s
		return fs
	})
	_, err := f.Run()
	if err == nil || !strings.Contains(err.Error(), "injected poll failure") {
		t.Fatalf("Run = %v, want the injected poll failure", err)
	}
	if fs.polls != failAt {
		t.Fatalf("stream polled %d times after the failure at poll %d; the subscription must be cancelled", fs.polls, failAt)
	}
	if f.Stats().Polls != failAt {
		t.Fatalf("Stats.Polls = %d, want %d", f.Stats().Polls, failAt)
	}
	// The clock halted at the failing cycle, not at the end of the window
	// (let alone the 7-day observation tail).
	wantNow := cfg.Epoch.Add(failAt * cfg.PollInterval)
	if got := f.Clock.Now(); !got.Equal(wantNow) {
		t.Fatalf("clock ended at %v, want the failing cycle's time %v", got, wantNow)
	}
}

// streamSweepConfig is lean enough to run the study a dozen times in one
// test while still streaming both cohorts and exercising the monitor's
// pipe fan-out.
func streamSweepConfig(workers, depth int, backend string) Config {
	cfg := DefaultConfig()
	cfg.Seed = 17
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	cfg.Duration = 60 * 24 * time.Hour
	cfg.MonitorInterval = 24 * time.Hour
	cfg.Workers = workers
	cfg.QueueDepth = depth
	cfg.Backend = backend
	return cfg
}

// TestStudyDeterminismAcrossQueueDepths is the streaming engine's
// end-to-end contract (the `make verify-stream` gate): the same seeded
// study is bit-identical at every (workers, queue-depth) setting on the
// inproc backend, and across the http backend too. Queue depth, like
// worker count, trades memory and wall-clock — never results.
func TestStudyDeterminismAcrossQueueDepths(t *testing.T) {
	run := func(workers, depth int, backend string) ([]byte, Stats) {
		t.Helper()
		f := newCached(streamSweepConfig(workers, depth, backend))
		study, err := f.Run()
		if err != nil {
			t.Fatalf("workers=%d depth=%d backend=%s: %v", workers, depth, backend, err)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("workers=%d depth=%d backend=%s failed verification: %v", workers, depth, backend, err)
		}
		if len(study.Records) == 0 {
			t.Fatalf("workers=%d depth=%d backend=%s produced no records; the sweep is vacuous", workers, depth, backend)
		}
		var buf bytes.Buffer
		if err := study.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), f.Stats()
	}
	compare := func(label string, wantJSONL, gotJSONL []byte, wantStats, gotStats Stats) {
		t.Helper()
		if gotStats != wantStats {
			t.Fatalf("%s: stats diverge:\nbaseline: %+v\ngot:      %+v", label, wantStats, gotStats)
		}
		if !bytes.Equal(wantJSONL, gotJSONL) {
			a := strings.Split(string(wantJSONL), "\n")
			b := strings.Split(string(gotJSONL), "\n")
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("%s: study diverges at record %d:\nbaseline: %s\ngot:      %s", label, i, a[i], b[i])
				}
			}
			t.Fatalf("%s: study lengths diverge: %d vs %d records", label, len(a), len(b))
		}
	}

	baseJSONL, baseStats := run(1, 1, BackendInproc)
	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 4, 64} {
			if workers == 1 && depth == 1 {
				continue
			}
			jsonl, stats := run(workers, depth, BackendInproc)
			compare(fmt.Sprintf("inproc workers=%d depth=%d", workers, depth), baseJSONL, jsonl, baseStats, stats)
		}
	}
	// The http backend re-runs the matrix corners: the wire path must not
	// interact with streaming either.
	for _, c := range [][2]int{{1, 1}, {8, 64}} {
		jsonl, stats := run(c[0], c[1], BackendHTTP)
		compare(fmt.Sprintf("http workers=%d depth=%d", c[0], c[1]), baseJSONL, jsonl, baseStats, stats)
	}
}

// silentStream polls the real platforms and streams none of what it sees,
// so every cycle of the study is empty.
type silentStream struct {
	inner world.URLStream
	polls int
}

func (s *silentStream) Poll(now time.Time) ([]crawler.StreamedURL, error) {
	s.polls++
	_, err := s.inner.Poll(now)
	return nil, err
}

// TestEmptyCycleBuildsNoPipe: a cycle with no fresh URL would emit,
// journal and apply nothing, so it must not build the pipe graph at all.
// A study whose every cycle is empty still counts each poll but never
// registers a freephish_pipe_* instrument.
func TestEmptyCycleBuildsNoPipe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	cfg.Duration = 24 * time.Hour
	cfg.Registry = obs.NewRegistry()
	ss := &silentStream{}
	f := newCached(cfg)
	f.wrapWorld = wrapStream(func(s world.URLStream) world.URLStream {
		ss.inner = s
		return ss
	})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	cycles := int(cfg.Duration / cfg.PollInterval)
	if ss.polls != cycles || f.Stats().Polls != cycles {
		t.Fatalf("stream polled %d times, Stats.Polls = %d, want %d cycles", ss.polls, f.Stats().Polls, cycles)
	}
	var b strings.Builder
	if err := cfg.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "freephish_pipe_") {
			t.Fatalf("empty cycles registered a pipe series: %s", line)
		}
	}
}
