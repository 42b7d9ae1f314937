package pipe

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The slice-shaped single-stage API: MapOrdered and Do.

func TestMapOrderedPreservesInputOrder(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	// Stagger completion so later items routinely finish first.
	out, err := MapOrdered(8, items, func(i, v int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Duration(i%3) * time.Millisecond)
		}
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapOrderedLowestIndexError(t *testing.T) {
	items := make([]int, 64)
	errAt := func(i int) error { return fmt.Errorf("item %d failed", i) }
	for _, workers := range []int{1, 4, 16} {
		out, err := MapOrdered(workers, items, func(i, _ int) (int, error) {
			if i == 9 || i == 41 {
				return 0, errAt(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 9 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
		// Non-failing items still produced their results.
		if out[40] != 40 || out[63] != 63 {
			t.Fatalf("workers=%d: successful results lost: %v", workers, out[40])
		}
	}
}

func TestMapOrderedWorkerPanicPropagates(t *testing.T) {
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
	items := make([]int, 32)
	_, _ = MapOrdered(4, items, func(i, _ int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
}

func TestDoBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	Do(workers, 100, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent workers, cap is %d", p, workers)
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 9} {
		hit := make([]atomic.Bool, 57)
		Do(workers, len(hit), func(i int) { hit[i].Store(true) })
		for i := range hit {
			if !hit[i].Load() {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestMapAndDoNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		items := make([]int, 50)
		_, err := MapOrdered(8, items, func(i, _ int) (int, error) {
			if i%13 == 0 {
				return 0, errors.New("planned failure")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		Do(6, 50, func(int) {})
	}
	// Give exiting workers a moment to be reaped before counting.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
}

// MapOrdered and Do size their pools with Workers: a non-positive count
// means GOMAXPROCS.
func TestWorkersResolvesDefault(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", Workers(-3))
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}
