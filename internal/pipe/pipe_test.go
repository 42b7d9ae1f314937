package pipe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/obs"
)

// runSweepCase pushes n items through a two-stage pipeline with
// completion-order jitter and returns the ordered drain output.
func runSweepCase(t *testing.T, n, workers, depth int) []int {
	t.Helper()
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	p := New(context.Background(), Options{Name: "sweep"})
	src := Source(p, depth, items)
	// Stagger completion so later items routinely finish before earlier
	// ones and the reorder buffer has real work to do.
	st1 := Stage(src, "square", workers, depth, func(i, v int) (int, error) {
		if i%5 == 0 {
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
		}
		return v * v, nil
	})
	st2 := Stage(st1, "negate", workers, depth, func(i, v int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
		}
		return -v, nil
	})
	out, err := Collect(st2)
	if err != nil {
		t.Fatalf("workers=%d depth=%d: %v", workers, depth, err)
	}
	return out
}

// TestDeterminismSweep is the engine's core contract: the same input
// through every (workers, queue-depth) combination produces the identical
// ordered output.
func TestDeterminismSweep(t *testing.T) {
	const n = 300
	want := make([]int, n)
	for i := range want {
		want[i] = -(i * i)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 4, 64} {
			got := runSweepCase(t, n, workers, depth)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d depth=%d: output diverges from sequential order", workers, depth)
			}
		}
	}
}

func TestFailFastLowestIndexError(t *testing.T) {
	items := make([]int, 128)
	p := New(context.Background(), Options{})
	src := Source(p, 4, items)
	st := Stage(src, "work", 8, 4, func(i, v int) (int, error) {
		if i == 17 || i == 90 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	applied := 0
	err := Drain(st, func(i, v int) error {
		applied++
		return nil
	})
	if err == nil || err.Error() != "item 17 failed" {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
	// Fail-fast: everything before the failed item was applied, nothing at
	// or after it.
	if applied != 17 {
		t.Fatalf("applied %d items, want exactly the 17 preceding the failure", applied)
	}
}

func TestContinueOnErrorAttemptsAll(t *testing.T) {
	items := make([]int, 64)
	var attempts atomic.Int64
	p := New(context.Background(), Options{ContinueOnError: true})
	src := Source(p, 4, items)
	st := Stage(src, "work", 4, 4, func(i, v int) (int, error) {
		attempts.Add(1)
		if i == 9 || i == 41 {
			return -1, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	out, err := Collect(st)
	if err == nil || err.Error() != "item 9 failed" {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
	if got := attempts.Load(); got != 64 {
		t.Fatalf("attempted %d items, want all 64", got)
	}
	if len(out) != 64 || out[40] != 40 || out[63] != 63 || out[9] != -1 {
		t.Fatalf("continue-on-error results corrupted: len=%d", len(out))
	}
}

func TestSinkErrorCancelsUpstream(t *testing.T) {
	var produced atomic.Int64
	p := New(context.Background(), Options{})
	src := Range(p, 2, 100000)
	st := Stage(src, "work", 2, 2, func(i, v int) (int, error) {
		produced.Add(1)
		return v, nil
	})
	wantErr := errors.New("sink rejects item 5")
	err := Drain(st, func(i, v int) error {
		if i == 5 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// The source must have stopped near the failure, not run to 100k.
	if got := produced.Load(); got > 64 {
		t.Fatalf("upstream produced %d items after a sink error at 5", got)
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", pe.Value)
		}
	}()
	p := New(context.Background(), Options{})
	src := Range(p, 4, 64)
	st := Stage(src, "work", 4, 4, func(i, v int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return v, nil
	})
	_, _ = Collect(st)
}

func TestExternalCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	p := New(ctx, Options{})
	src := Range(p, 2, 10000)
	st := Stage(src, "stall", 2, 2, func(i, v int) (int, error) {
		if i == 3 {
			<-release // stalls until cancellation
		}
		return v, nil
	})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
		close(release)
	}()
	err := Drain(st, func(i, v int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStalledStageBackpressures proves the bounded-memory half of the
// design: with the head-of-line item stalled in the middle stage, the
// source may run at most (stage workers + queues + reorder window) ahead —
// never the whole input.
func TestStalledStageBackpressures(t *testing.T) {
	const n, workers, depth = 100000, 4, 8
	var pulled atomic.Int64
	release := make(chan struct{})
	p := New(context.Background(), Options{})
	src := Range(p, depth, n)
	counted := Stage(src, "count", 1, depth, func(i, v int) (int, error) {
		pulled.Add(1)
		return v, nil
	})
	stalled := Stage(counted, "stall", workers, depth, func(i, v int) (int, error) {
		if i == 0 {
			<-release
		}
		return v, nil
	})
	done := make(chan error, 1)
	go func() {
		done <- Drain(stalled, func(i, v int) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	// Upper bound on how far the flow can advance past a stalled head:
	// every queue full plus every worker and reorder slot occupied.
	bound := int64(4*workers + 4*depth + 8)
	if got := pulled.Load(); got > bound {
		t.Fatalf("stalled pipeline pulled %d items; backpressure bound is %d", got, bound)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	if got := pulled.Load(); got != n {
		t.Fatalf("only %d/%d items flowed after release", got, n)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	failing := func(i, v int) (int, error) {
		if i%13 == 0 {
			return 0, errors.New("planned failure")
		}
		return v, nil
	}
	nop := func(int, int) error { return nil }
	// feed builds a long-lived graph and feeds it three batches.
	feed := func(t *testing.T, fn func(i, v int) (int, error)) (*Pipeline, *Inlet[int], *Flow[int], error) {
		p := New(context.Background(), Options{})
		in, src := Feed[int](p, 4)
		st := Stage(src, "work", 8, 4, fn)
		var err error
		for b := 0; b < 3 && err == nil; b++ {
			batch := make([]int, 20)
			in.Push(batch)
			err = Pull(st, len(batch), nop)
		}
		return p, in, st, err
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"one-shot failure", func(t *testing.T) {
			p := New(context.Background(), Options{})
			st := Stage(Range(p, 4, 50), "work", 8, 4, failing)
			if err := Drain(st, nop); err == nil {
				t.Fatal("expected an error")
			}
		}},
		{"feed closed and drained", func(t *testing.T) {
			_, in, st, err := feed(t, func(i, v int) (int, error) { return v, nil })
			if err != nil {
				t.Fatal(err)
			}
			in.Close()
			if err := Drain(st, nop); err != nil {
				t.Fatal(err)
			}
		}},
		{"feed closed while idle", func(t *testing.T) {
			p, _, _, err := feed(t, func(i, v int) (int, error) { return v, nil })
			if err != nil {
				t.Fatal(err)
			}
			p.Close()
		}},
		{"feed failed pull", func(t *testing.T) {
			if _, _, _, err := feed(t, failing); err == nil {
				t.Fatal("expected an error")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for round := 0; round < 20; round++ {
				tc.run(t)
			}
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= base+2 {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
		})
	}
}

// feedGraph builds a long-lived two-stage graph whose stages stagger
// completion, so the reorder buffers work across batch boundaries. The
// second stage panics on a value of panicAt (never when negative) and
// fails on any value in failAt; OnEmit records each stage's indices.
func feedGraph(workers, depth, panicAt int, failAt map[int]bool, emits map[string][]int, mu *sync.Mutex) (*Inlet[int], *Flow[int]) {
	p := New(context.Background(), Options{
		Name: "feed",
		OnEmit: func(stage string, i int, err error) {
			mu.Lock()
			emits[stage] = append(emits[stage], i)
			mu.Unlock()
		},
	})
	in, src := Feed[int](p, depth)
	st1 := Stage(src, "a", workers, depth, func(i, v int) (int, error) {
		if v%5 == 0 {
			time.Sleep(time.Duration(v%4) * 50 * time.Microsecond)
		}
		return v, nil
	})
	st2 := Stage(st1, "b", workers, depth, func(i, v int) (int, error) {
		if v == panicAt {
			panic("boom")
		}
		if failAt[v] {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	return in, st2
}

// TestFeedBatchesContinueSequence is the long-lived graph's contract:
// batches of 0, 1 and more than Workers+depth items, each pulled in full
// before the next is pushed, come out in feed order, the sink's sequence
// number continues across batches, and every callback sees an item's
// index within its own batch.
func TestFeedBatchesContinueSequence(t *testing.T) {
	const workers, depth = 4, 2
	sizes := []int{0, 1, 13, 0, 1, 40, workers + depth + 1, 0, 25}
	var mu sync.Mutex
	emits := map[string][]int{}
	in, out := feedGraph(workers, depth, -1, nil, emits, &mu)
	next := 0
	var wantIdx []int
	for b, n := range sizes {
		batch := make([]int, n)
		for i := range batch {
			batch[i] = next + i
			wantIdx = append(wantIdx, i)
		}
		in.Push(batch)
		applied := 0
		err := Pull(out, n, func(i, v int) error {
			if i != applied || v != next+applied {
				t.Fatalf("batch %d: pulled (i=%d, v=%d) at position %d, want (i=%d, v=%d)", b, i, v, applied, applied, next+applied)
			}
			applied++
			return nil
		})
		if err != nil || applied != n {
			t.Fatalf("batch %d: Pull = %v after %d of %d items", b, err, applied, n)
		}
		next += n
		if out.next != next {
			t.Fatalf("batch %d: sink sequence at %d, want %d: seq must continue across batches", b, out.next, next)
		}
	}
	in.Close()
	if err := Drain(out, func(i, v int) error {
		t.Fatalf("drained item %d after every batch was pulled", v)
		return nil
	}); err != nil {
		t.Fatalf("Drain after Close = %v", err)
	}
	for _, stage := range []string{"a", "b", "drain"} {
		if !reflect.DeepEqual(emits[stage], wantIdx) {
			t.Fatalf("stage %q emitted indices %v, want each batch's indices in order %v", stage, emits[stage], wantIdx)
		}
	}
}

// TestFeedFailureStopsLaterBatches: a fail-fast failure in batch k is
// reported at its lowest index, nothing from its index on is applied, and
// no later batch is ever applied.
func TestFeedFailureStopsLaterBatches(t *testing.T) {
	var mu sync.Mutex
	in, out := feedGraph(4, 2, -1, map[int]bool{27: true, 24: true, 40: true}, map[string][]int{}, &mu)
	var applied []int
	apply := func(i, v int) error {
		applied = append(applied, v)
		return nil
	}
	for b, span := range [][2]int{{0, 10}, {10, 20}, {20, 30}, {30, 45}} {
		var batch []int
		for v := span[0]; v < span[1]; v++ {
			batch = append(batch, v)
		}
		in.Push(batch)
		err := Pull(out, len(batch), apply)
		if b < 2 && err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if b >= 2 && (err == nil || err.Error() != "item 24 failed") {
			t.Fatalf("batch %d: Pull = %v, want batch 2's lowest-index error", b, err)
		}
	}
	if len(applied) != 24 || applied[23] != 23 {
		t.Fatalf("applied %v, want exactly the 24 items before the failure", applied)
	}
}

// TestFeedWorkerPanicReraised: a worker panic in batch k is re-raised as
// a *PanicError on the pulling goroutine, after every earlier batch was
// applied in full.
func TestFeedWorkerPanicReraised(t *testing.T) {
	var mu sync.Mutex
	in, out := feedGraph(4, 2, 17, nil, map[string][]int{}, &mu)
	applied := 0
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Value != "boom" {
			t.Fatalf("recovered %v, want the worker's *PanicError", pe)
		}
		if applied < 15 || applied > 17 {
			t.Fatalf("applied %d items, want both earlier batches (15) and nothing at or after the panic", applied)
		}
	}()
	for _, n := range []int{5, 10, 10, 10} {
		batch := make([]int, n)
		for i := range batch {
			batch[i] = applied + i
		}
		in.Push(batch)
		_ = Pull(out, n, func(i, v int) error {
			applied++
			return nil
		})
	}
	t.Fatal("the worker panic was never re-raised")
}

func TestStageMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(context.Background(), Options{Name: "poll", Registry: reg})
	src := Source(p, 4, []int{1, 2, 3, 4, 5})
	st := Stage(src, "fetch", 2, 4, func(i, v int) (int, error) {
		if i == 2 {
			return 0, errors.New("one failure")
		}
		return v, nil
	})
	p2 := Stage(st, "classify", 2, 4, func(i, v int) (int, error) { return v, nil })
	// ContinueOnError keeps the failed item flowing so counts are exact.
	p.continueOnError = true
	if _, err := Collect(p2); err == nil {
		t.Fatal("expected the injected failure")
	}
	snap := map[string]float64{}
	for _, s := range reg.Snapshot() {
		snap[s.Name+"|"+s.Labels["pipe"]+"|"+s.Labels["stage"]] += s.Value
	}
	if got := snap["freephish_pipe_items_total|poll|fetch"]; got != 5 {
		t.Fatalf("fetch items_total = %v, want 5 (snapshot: %v)", got, snap)
	}
	if got := snap["freephish_pipe_errors_total|poll|fetch"]; got != 1 {
		t.Fatalf("fetch errors_total = %v, want 1", got)
	}
	// The failed item skips the downstream stage's fn.
	if got := snap["freephish_pipe_items_total|poll|classify"]; got != 4 {
		t.Fatalf("classify items_total = %v, want 4", got)
	}
}

func TestDepthAndWorkerResolution(t *testing.T) {
	if DepthOrDefault(0) != DefaultDepth || DepthOrDefault(-2) != DefaultDepth || DepthOrDefault(3) != 3 {
		t.Fatal("DepthOrDefault broken")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(5) != 5 {
		t.Fatal("Workers broken")
	}
}

// TestOnEmitOrderedPerStage is the hook contract behind lifecycle tracing:
// OnEmit fires once per item per stage in input order within each stage
// (stages interleave freely), carries the item's error, and the drain
// point reports under stage "drain". With the hook unset nothing extra
// runs at all.
func TestOnEmitOrderedPerStage(t *testing.T) {
	const n = 200
	type emit struct {
		stage string
		seq   int
		err   error
	}
	var mu sync.Mutex
	perStage := map[string][]emit{}
	p := New(context.Background(), Options{
		Name:            "traced",
		ContinueOnError: true,
		OnEmit: func(stage string, seq int, err error) {
			mu.Lock()
			perStage[stage] = append(perStage[stage], emit{stage, seq, err})
			mu.Unlock()
		},
	})
	wantErr := errors.New("boom")
	src := Range(p, 4, n)
	st1 := Stage(src, "a", 8, 4, func(i, v int) (int, error) {
		if i%5 == 0 {
			time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
		}
		if i == 17 {
			return 0, wantErr
		}
		return v, nil
	})
	st2 := Stage(st1, "b", 8, 4, func(i, v int) (int, error) { return v, nil })
	if err := Drain(st2, func(i, v int) error { return nil }); !errors.Is(err, wantErr) {
		t.Fatalf("Drain = %v, want the injected error", err)
	}

	for _, stage := range []string{"a", "b", "drain"} {
		emits := perStage[stage]
		if len(emits) != n {
			t.Fatalf("stage %q emitted %d times, want %d", stage, len(emits), n)
		}
		for i, e := range emits {
			if e.seq != i {
				t.Fatalf("stage %q emission %d has seq %d: OnEmit must follow input order", stage, i, e.seq)
			}
			if (e.seq == 17) != (e.err != nil) {
				t.Fatalf("stage %q seq %d err = %v", stage, e.seq, e.err)
			}
		}
	}
}
