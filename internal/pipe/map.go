package pipe

import "context"

// MapOrdered and Do are the slice-shaped, single-stage case of the engine
// that the ML trainers, model training and the shard fan-out use: a
// ContinueOnError pipeline of one stage whose ordered drain fills a
// result slice. With one worker (or one item) they run as a plain loop on
// the caller's goroutine.

// MapOrdered applies fn to every item using at most workers goroutines
// (0 = one per CPU) and returns the results in input order. All items are
// attempted even when some fail; the returned error is the one with the
// lowest input index — exactly the error a sequential loop over items
// would return first — so error selection is independent of goroutine
// scheduling. If a worker panics, remaining in-flight work drains, queued
// work is skipped, and the lowest-index panic is re-raised here wrapped in
// *PanicError.
func MapOrdered[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	w := min(Workers(workers), n)
	if w <= 1 {
		var firstErr error
		for i, item := range items {
			var err error
			results[i], err = fn(i, item)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return results, firstErr
	}
	p := New(context.Background(), Options{Name: "map", ContinueOnError: true})
	st := Stage(Source(p, w, items), "map", w, w, fn)
	err := Drain(st, func(i int, v R) error {
		results[i] = v
		return nil
	})
	return results, err
}

// Do runs fn(i) for every i in [0, n) using at most workers goroutines
// and returns once all calls complete. It is MapOrdered without results
// or errors: the caller writes outputs into pre-sized slices by index,
// which keeps the fan-in trivially ordered. Worker panics are re-raised
// on the caller's goroutine after the pool drains.
func Do(workers, n int, fn func(i int)) {
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := New(context.Background(), Options{Name: "do"})
	st := Stage(Range(p, w, n), "do", w, w, func(i, _ int) (struct{}, error) {
		fn(i)
		return struct{}{}, nil
	})
	_ = Drain(st, func(int, struct{}) error { return nil })
}
