// Package pipe is the repository's staged-dataflow engine: pipelines
// composed of stages connected by bounded channels, each stage running its
// own worker pool, with a sequence-numbered reorder buffer so results are
// emitted downstream in input order the moment the head-of-line item
// completes. Item i+k can still be in flight while a downstream consumer
// is already applying item i — the property that turns the per-cycle batch
// barrier of a map-then-apply loop into a stream whose memory is bounded
// by (workers + queue depth), never by input size. MapOrdered and Do (see
// map.go) are the slice-shaped single-stage case the trainers use.
//
// The engine carries the repository's concurrency contracts:
//
//   - Determinism: the output order is the input order at every (workers,
//     queue-depth) setting. Parallelism trades wall-clock for cores and
//     changes nothing observable.
//   - Lowest-index error: the error returned by Drain/Collect is the one
//     the equivalent sequential loop would have hit first. In the default
//     fail-fast mode the pipeline cancels as soon as the ordered drain
//     point reaches a failed item; with Options.ContinueOnError every item
//     is still attempted (the MapOrdered contract) and the lowest-index
//     error is reported after the fact.
//   - Panic propagation: a panicking worker cancels the pipeline, all
//     goroutines drain (no leaks), and the lowest-index panic is re-raised
//     on the draining goroutine wrapped in *PanicError.
//   - Cancellation: cancelling the context passed to New stops every stage;
//     Drain returns the context's error after a graceful drain.
//
// When Options.Registry is set, every stage auto-registers its
// freephish_pipe_* instruments: queue depth, worker occupancy, per-item
// stage latency, and item/error counters, labeled by (pipe, stage).
package pipe

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"freephish/internal/obs"
)

// DefaultDepth is the per-stage queue bound used when a depth knob is left
// at zero. Deep enough to keep worker pools busy across stage-latency
// jitter, small enough that a cycle's in-flight memory stays trivial.
const DefaultDepth = 16

// DepthOrDefault resolves a queue-depth knob: n itself when positive,
// otherwise DefaultDepth. Every QueueDepth option in the repository routes
// through this, so "0 = default" is uniform.
func DepthOrDefault(n int) int {
	if n > 0 {
		return n
	}
	return DefaultDepth
}

// Workers resolves a worker-count knob: n itself when positive, otherwise
// runtime.GOMAXPROCS(0). Every Workers/Parallelism option in the
// repository routes through this, so "0 = use all cores" is uniform.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a value recovered from a stage-worker panic so it can
// be re-raised on the draining goroutine with the worker's stack attached.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("pipe: worker panic: %v\n%s", p.Value, p.Stack)
}

// Options parameterizes a Pipeline.
type Options struct {
	// Name labels the pipeline's metrics ("pipe" when empty).
	Name string
	// Registry, when non-nil, auto-registers per-stage freephish_pipe_*
	// instruments (queue depth, occupancy, latency, items, errors).
	Registry *obs.Registry
	// ContinueOnError selects the MapOrdered error contract: every
	// item is attempted even when some fail, failed items keep flowing
	// (carrying their error and whatever value the stage returned), and
	// Drain reports the lowest-index error at the end. The default is
	// fail-fast: the pipeline cancels when the ordered drain point reaches
	// the first failed item — exactly where a sequential loop would stop.
	ContinueOnError bool
	// OnEmit, when non-nil, observes every in-order emission: it fires on
	// each stage's reorder-buffer output (so per-stage calls arrive in
	// input order) and at the drain point with stage "drain". Stages emit
	// concurrently with each other, so calls for different stages
	// interleave nondeterministically — OnEmit feeds operational tracing
	// (the obs journal's ring), never canonical output. It must be safe
	// for concurrent use and cheap: it runs on the emitter goroutines.
	OnEmit func(stage string, seq int, err error)
}

// Pipeline is one dataflow instance: the shared control plane every stage
// of a Source → Stage… → Drain chain hangs off. Build one per run with
// New; a Pipeline is single-use (one source, one drain).
type Pipeline struct {
	name            string
	parent          context.Context
	ctx             context.Context
	cancel          context.CancelFunc
	reg             *obs.Registry
	continueOnError bool
	onEmit          func(stage string, seq int, err error)
	wg              sync.WaitGroup

	mu     sync.Mutex
	panics []seqPanic
}

type seqPanic struct {
	seq int
	err *PanicError
}

// New returns an empty pipeline. Cancelling ctx stops every stage; pass
// context.Background() for a pipeline only its drain point terminates.
func New(ctx context.Context, opts Options) *Pipeline {
	if ctx == nil {
		ctx = context.Background()
	}
	name := opts.Name
	if name == "" {
		name = "pipe"
	}
	derived, cancel := context.WithCancel(ctx)
	return &Pipeline{
		name:            name,
		parent:          ctx,
		ctx:             derived,
		cancel:          cancel,
		reg:             opts.Registry,
		continueOnError: opts.ContinueOnError,
		onEmit:          opts.OnEmit,
	}
}

// goRun tracks a pipeline goroutine so Drain can join everything before
// returning — the no-leak half of the panic/cancel contract.
func (p *Pipeline) goRun(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// recordPanic notes a worker panic and cancels the pipeline: queued work
// is skipped, in-flight work drains, and the lowest-index panic is
// re-raised at the drain point.
func (p *Pipeline) recordPanic(seq int, pe *PanicError) {
	p.mu.Lock()
	p.panics = append(p.panics, seqPanic{seq: seq, err: pe})
	p.mu.Unlock()
	p.cancel()
}

// lowestPanic returns the recorded panic with the smallest sequence
// number, or nil. Only meaningful after the pipeline's goroutines joined.
func (p *Pipeline) lowestPanic() *PanicError {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *PanicError
	bestSeq := -1
	for _, sp := range p.panics {
		if bestSeq < 0 || sp.seq < bestSeq {
			bestSeq, best = sp.seq, sp.err
		}
	}
	return best
}

// item is one sequence-numbered unit of flow. err carries the first stage
// failure the item hit; later stages pass failed items through untouched
// so ordering (and lowest-index error selection) is preserved.
type item[T any] struct {
	seq int
	val T
	err error
}

// Flow is a typed edge between stages: a bounded channel of sequenced
// items plus the owning pipeline.
type Flow[T any] struct {
	p     *Pipeline
	ch    chan item[T]
	depth *obs.Gauge // queue occupancy of ch; nil without a registry
}

func newFlow[T any](p *Pipeline, stage string, depth int) *Flow[T] {
	f := &Flow[T]{p: p, ch: make(chan item[T], DepthOrDefault(depth))}
	if p.reg != nil {
		f.depth = p.reg.GaugeVec("freephish_pipe_queue_depth",
			"Items buffered in the stage's output queue.", "pipe", "stage").
			With(p.name, stage)
	}
	return f
}

// send delivers an item downstream, honoring cancellation. It reports
// false when the pipeline stopped.
func (f *Flow[T]) send(it item[T]) bool {
	select {
	case f.ch <- it:
		if f.depth != nil {
			f.depth.Set(float64(len(f.ch)))
		}
		return true
	case <-f.p.ctx.Done():
		return false
	}
}

// recv takes the next item, honoring cancellation. ok is false when the
// flow is exhausted or the pipeline stopped.
func (f *Flow[T]) recv() (it item[T], ok bool) {
	select {
	case it, ok = <-f.ch:
		if ok && f.depth != nil {
			f.depth.Set(float64(len(f.ch)))
		}
		return it, ok
	case <-f.p.ctx.Done():
		return item[T]{}, false
	}
}

// Source feeds a slice into the pipeline, one sequence number per element
// starting at 0, through a queue of the given depth (0 = DefaultDepth).
func Source[T any](p *Pipeline, depth int, items []T) *Flow[T] {
	f := newFlow[T](p, "source", depth)
	p.goRun(func() {
		defer close(f.ch)
		for i, v := range items {
			if !f.send(item[T]{seq: i, val: v}) {
				return
			}
		}
	})
	return f
}

// Range feeds the integers [0, n) into the pipeline — the index-space
// source Do is built on.
func Range(p *Pipeline, depth, n int) *Flow[int] {
	f := newFlow[int](p, "source", depth)
	p.goRun(func() {
		defer close(f.ch)
		for i := 0; i < n; i++ {
			if !f.send(item[int]{seq: i, val: i}) {
				return
			}
		}
	})
	return f
}

// stageInstruments bundles one stage's auto-registered metrics.
type stageInstruments struct {
	occupancy *obs.Gauge
	latency   *obs.Histogram
	items     *obs.Counter
	errors    *obs.Counter
}

func (p *Pipeline) instruments(stage string) *stageInstruments {
	if p.reg == nil {
		return nil
	}
	return &stageInstruments{
		occupancy: p.reg.GaugeVec("freephish_pipe_occupancy",
			"Stage workers currently executing an item.", "pipe", "stage").
			With(p.name, stage),
		latency: p.reg.HistogramVec("freephish_pipe_stage_seconds",
			"Per-item stage latency.", nil, "pipe", "stage").
			With(p.name, stage),
		items: p.reg.CounterVec("freephish_pipe_items_total",
			"Items the stage finished processing.", "pipe", "stage").
			With(p.name, stage),
		errors: p.reg.CounterVec("freephish_pipe_errors_total",
			"Items whose stage function returned an error.", "pipe", "stage").
			With(p.name, stage),
	}
}

// Stage attaches a worker pool of the given size (0 = one per CPU) that
// applies fn to every item of in and emits results downstream in input
// order through a queue of the given depth (0 = DefaultDepth). Workers
// receive items in input order and complete out of order; the reorder
// buffer re-sequences them, holding at most (workers + queue depth) items,
// so a slow item stalls emission but never unbounded memory. Items that
// already failed an earlier stage skip fn and pass through, preserving
// order and lowest-index error selection. fn runs concurrently with other
// items — it must only touch thread-safe or read-only state.
func Stage[In, Out any](in *Flow[In], stage string, workers, depth int, fn func(i int, v In) (Out, error)) *Flow[Out] {
	p := in.p
	w := Workers(workers)
	out := newFlow[Out](p, stage, depth)
	inst := p.instruments(stage)
	// results is the unordered fan-in edge between the workers and the
	// reorder buffer.
	results := make(chan item[Out], w)
	// credits bound the reorder window: a worker takes a credit before
	// pulling an item and the emitter returns it when the item leaves in
	// order, so at most (workers + queue depth) pulled-but-unemitted items
	// ever exist — this is what keeps a stalled head-of-line item from
	// buffering the whole input. The credit must be acquired BEFORE recv:
	// the input channel is FIFO, so whichever worker holds the head item
	// already holds a credit and the window cannot deadlock.
	window := w + DepthOrDefault(depth)
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	var workersDone sync.WaitGroup
	for g := 0; g < w; g++ {
		workersDone.Add(1)
		p.goRun(func() {
			defer workersDone.Done()
			for {
				select {
				case <-credits:
				case <-p.ctx.Done():
					return
				}
				it, ok := in.recv()
				if !ok {
					return
				}
				o := item[Out]{seq: it.seq, err: it.err}
				if it.err == nil {
					o.val, o.err = runItem(p, inst, it.seq, it.val, fn)
				}
				select {
				case results <- o:
				case <-p.ctx.Done():
					return
				}
			}
		})
	}
	p.goRun(func() {
		workersDone.Wait()
		close(results)
	})
	// The reorder emitter: buffer out-of-order completions, emit the head
	// of line the moment it lands.
	p.goRun(func() {
		defer close(out.ch)
		buf := make(map[int]item[Out], w)
		next := 0
		for {
			it, ok := <-results
			if !ok {
				break
			}
			buf[it.seq] = it
			for {
				head, exists := buf[next]
				if !exists {
					break
				}
				delete(buf, next)
				if !out.send(head) {
					return
				}
				if p.onEmit != nil {
					p.onEmit(stage, head.seq, head.err)
				}
				credits <- struct{}{}
				next++
			}
		}
		// Input exhausted. Flush any buffered stragglers in sequence
		// order; gaps can exist only after a panic or cancellation, and
		// the drain point stops at the first one.
		rest := make([]int, 0, len(buf))
		for seq := range buf {
			rest = append(rest, seq)
		}
		sort.Ints(rest)
		for _, seq := range rest {
			if !out.send(buf[seq]) {
				return
			}
			if p.onEmit != nil {
				p.onEmit(stage, seq, buf[seq].err)
			}
		}
	})
	return out
}

// runItem executes fn for one item under the panic guard, with the
// stage's instruments around it.
func runItem[In, Out any](p *Pipeline, inst *stageInstruments, seq int, v In, fn func(i int, v In) (Out, error)) (out Out, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			p.recordPanic(seq, &PanicError{Value: r, Stack: buf})
			err = p.ctx.Err()
		}
	}()
	if p.ctx.Err() != nil {
		return out, p.ctx.Err()
	}
	if inst == nil {
		return fn(seq, v)
	}
	inst.occupancy.Add(1)
	start := time.Now()
	out, err = fn(seq, v)
	inst.latency.Observe(time.Since(start).Seconds())
	inst.occupancy.Add(-1)
	inst.items.Inc()
	if err != nil {
		inst.errors.Inc()
	}
	return out, err
}

// Drain is the pipeline's ordered sink: it consumes the flow in input
// order, applying fn sequentially — the stage where stateful effects
// belong. In fail-fast mode the first failed item (or fn error) cancels
// the pipeline and is returned; with ContinueOnError every item reaches
// fn and the lowest-index error is returned at the end. Drain blocks
// until every pipeline goroutine has exited, re-raises the lowest-index
// worker panic if one occurred, and otherwise returns the context's error
// when the pipeline was cancelled externally.
func Drain[T any](f *Flow[T], fn func(i int, v T) error) error {
	p := f.p
	var firstErr error
	next := 0
loop:
	for {
		it, ok := f.recv()
		if !ok {
			break
		}
		if it.seq != next {
			// A gap means an upstream abort (panic or cancellation)
			// swallowed an item; the sequential loop would have stopped
			// there, so stop applying here.
			break
		}
		next++
		if p.onEmit != nil {
			p.onEmit("drain", it.seq, it.err)
		}
		switch {
		case it.err != nil && !p.continueOnError:
			firstErr = it.err
			break loop
		case it.err != nil:
			if firstErr == nil {
				firstErr = it.err
			}
			// The MapOrdered contract: the collector still sees the
			// value the stage returned alongside the error. An fn error
			// here is subordinate — the item's stage error came first.
			_ = fn(it.seq, it.val)
		default:
			if err := fn(it.seq, it.val); err != nil {
				if !p.continueOnError {
					firstErr = err
					break loop
				}
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	p.cancel()
	p.wg.Wait()
	if pe := p.lowestPanic(); pe != nil {
		panic(pe)
	}
	if firstErr != nil {
		return firstErr
	}
	return p.parent.Err()
}

// Collect drains the flow into a slice, preserving input order.
func Collect[T any](f *Flow[T]) ([]T, error) {
	var out []T
	err := Drain(f, func(i int, v T) error {
		out = append(out, v)
		return nil
	})
	return out, err
}
