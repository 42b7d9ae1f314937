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
// A graph is either one-shot or long-lived. A one-shot graph starts from
// Source (or Range) and ends in Drain. A long-lived graph starts from
// Feed and is fed one batch at a time through its Inlet; Pull applies
// exactly one batch's results, so the graph's goroutines start once and
// serve every batch. Close ends either kind.
//
// The engine carries the repository's concurrency contracts:
//
//   - Determinism: the output order is the input order at every (workers,
//     queue-depth) setting. Parallelism trades wall-clock for cores and
//     changes nothing observable.
//   - Lowest-index error: the error returned by Drain/Pull/Collect is the one
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
	// input order) and at the drain point with stage "drain", with the
	// item's index within its batch (for a Source flow, its sequence
	// number) and its error. Stages emit
	// concurrently with each other, so calls for different stages
	// interleave nondeterministically — OnEmit feeds operational tracing
	// (the obs journal's ring), never canonical output. It must be safe
	// for concurrent use and cheap: it runs on the emitter goroutines.
	OnEmit func(stage string, seq int, err error)
}

// Pipeline is one dataflow instance: the shared control plane every stage
// of a Source/Feed → Stage… → Drain/Pull chain hangs off. A Pipeline has
// one source and one ordered sink. When the sink stops — the flow ended,
// an item failed fail-fast, or a worker panicked — the pipeline is
// finished: its goroutines have exited, and later Pulls and Drains return
// the same outcome without applying anything. Close stops it from
// outside; its sink must not be pulled after that.
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

	// finished and termErr belong to the sink's goroutine: set when the
	// sink stops, they make every later Pull or Drain return termErr.
	finished bool
	termErr  error
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

// Close stops the pipeline and waits for every one of its goroutines to
// exit: work in flight completes, queued work is dropped. It is safe to
// call more than once, and after the sink has finished the pipeline.
func (p *Pipeline) Close() {
	p.cancel()
	p.wg.Wait()
}

// goRun tracks a pipeline goroutine so Close can join everything before
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

// item is one sequence-numbered unit of flow. seq orders the whole flow
// and continues across batches; i is the item's index within its batch,
// the index every callback sees. err carries the first stage failure the
// item hit; later stages pass failed items through untouched so ordering
// (and lowest-index error selection) is preserved.
type item[T any] struct {
	seq int
	i   int
	val T
	err error
}

// Flow is a typed edge between stages: a bounded channel of sequenced
// items plus the owning pipeline.
type Flow[T any] struct {
	p     *Pipeline
	ch    chan item[T]
	depth *obs.Gauge // queue occupancy of ch; nil without a registry
	next  int        // the sink's next expected seq (terminal flows only)
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

// Inlet feeds a Feed flow one batch at a time.
type Inlet[T any] struct {
	p *Pipeline
	// batches holds one batch, so a push to an idle source never waits.
	batches chan []T
}

// Feed returns a source flow fed batch by batch through the returned
// Inlet, through a queue of the given depth (0 = DefaultDepth). Each
// batch's items take the next sequence numbers, so order continues
// across batches, while stage functions, OnEmit and the sink see each
// item's index within its own batch. Closing the inlet ends the flow
// once every pushed item has been sent.
func Feed[T any](p *Pipeline, depth int) (*Inlet[T], *Flow[T]) {
	in := &Inlet[T]{p: p, batches: make(chan []T, 1)}
	return in, feed(p, depth, nil, in.batches)
}

// Push queues a batch. It waits while an earlier batch is still queued
// (the source takes a batch once it has sent the one before), so a
// caller that pulls each batch before it pushes the next never waits.
// The source reads the batch's elements after Push returns, so the caller
// must leave them untouched until they have been pulled.
func (in *Inlet[T]) Push(batch []T) {
	if len(batch) == 0 {
		return
	}
	select {
	case in.batches <- batch:
	case <-in.p.ctx.Done():
	}
}

// Close ends the flow after the batches already pushed. Nothing may be
// pushed after Close.
func (in *Inlet[T]) Close() { close(in.batches) }

// Source feeds a slice into the pipeline, one sequence number per element
// starting at 0, through a queue of the given depth (0 = DefaultDepth): a
// Feed flow fed items and closed, without the inlet.
func Source[T any](p *Pipeline, depth int, items []T) *Flow[T] {
	return feed(p, depth, items, nil)
}

// feed starts the source every flow begins with: it sends first, then
// each batch received from more until more is closed; a nil more ends
// the flow after first.
func feed[T any](p *Pipeline, depth int, first []T, more chan []T) *Flow[T] {
	f := newFlow[T](p, "source", depth)
	p.goRun(func() {
		defer close(f.ch)
		seq := 0
		for batch, ok := first, true; ok; {
			for i, v := range batch {
				if !f.send(item[T]{seq: seq, i: i, val: v}) {
					return
				}
				seq++
			}
			if more == nil {
				return
			}
			select {
			case batch, ok = <-more:
			case <-p.ctx.Done():
				return
			}
		}
	})
	return f
}

// Range feeds the integers [0, n) into the pipeline.
func Range(p *Pipeline, depth, n int) *Flow[int] {
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	return Source(p, depth, ints)
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
				o := item[Out]{seq: it.seq, i: it.i, err: it.err}
				if it.err == nil {
					o.val, o.err = runItem(p, inst, it.seq, it.i, it.val, fn)
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
					p.onEmit(stage, head.i, head.err)
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
				p.onEmit(stage, buf[seq].i, buf[seq].err)
			}
		}
	})
	return out
}

// runItem executes fn for one item under the panic guard, with the
// stage's instruments around it.
func runItem[In, Out any](p *Pipeline, inst *stageInstruments, seq, i int, v In, fn func(i int, v In) (Out, error)) (out Out, err error) {
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
		return fn(i, v)
	}
	inst.occupancy.Add(1)
	start := time.Now()
	out, err = fn(i, v)
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
	_, _, err := f.pull(-1, fn)
	return f.p.finish(err)
}

// Pull is Drain for one batch of a Feed flow: it applies exactly the next
// n items in order and returns, leaving the pipeline running for the next
// batch. A failure finishes the pipeline as Drain does — the lowest-index
// error is returned (in fail-fast mode, nothing after it is applied, now
// or in any later batch), a worker panic is re-raised here, and every
// goroutine has exited before Pull returns. With ContinueOnError, Pull
// returns the batch's lowest-index error and the pipeline keeps running.
// A flow that ends before n items finishes the pipeline with an error.
func Pull[T any](f *Flow[T], n int, fn func(i int, v T) error) error {
	applied, stop, err := f.pull(n, fn)
	if !stop {
		return err
	}
	if err = f.p.finish(err); err == nil && applied < n {
		err = fmt.Errorf("pipe: flow ended after %d of %d items", applied, n)
	}
	return err
}

// pull is the sink loop Drain and Pull share: it applies items in
// sequence order until n have been applied (n < 0: until the flow ends).
// stop reports that the pipeline cannot go on — the flow ended, an
// upstream abort left a gap, or an item failed fail-fast — so the caller
// must finish it.
func (f *Flow[T]) pull(n int, fn func(i int, v T) error) (applied int, stop bool, firstErr error) {
	p := f.p
	if p.finished {
		return 0, true, nil
	}
	for ; n < 0 || applied < n; applied++ {
		it, ok := f.recv()
		if !ok || it.seq != f.next {
			// A gap means an upstream abort (panic or cancellation)
			// swallowed an item; the sequential loop would have stopped
			// there, so stop applying here.
			return applied, true, firstErr
		}
		f.next++
		if p.onEmit != nil {
			p.onEmit("drain", it.i, it.err)
		}
		switch {
		case it.err != nil && !p.continueOnError:
			return applied, true, it.err
		case it.err != nil:
			if firstErr == nil {
				firstErr = it.err
			}
			// The MapOrdered contract: the collector still sees the
			// value the stage returned alongside the error. An fn error
			// here is subordinate — the item's stage error came first.
			_ = fn(it.i, it.val)
		default:
			if err := fn(it.i, it.val); err != nil {
				if !p.continueOnError {
					return applied, true, err
				}
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return applied, false, firstErr
}

// finish ends the pipeline once its sink stopped with err: it closes the
// pipeline, re-raises the lowest-index worker panic if one occurred, and
// otherwise returns err, or the context's error when the pipeline was
// cancelled externally. Later calls return the first call's outcome.
func (p *Pipeline) finish(err error) error {
	if p.finished {
		return p.termErr
	}
	p.finished = true
	p.Close()
	if pe := p.lowestPanic(); pe != nil {
		p.termErr = pe
		panic(pe)
	}
	if err == nil {
		err = p.parent.Err()
	}
	p.termErr = err
	return err
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
