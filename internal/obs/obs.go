// Package obs is the FreePhish observability layer: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, histograms, and
// their labeled variants), a Prometheus text-exposition encoder, a stage
// tracer keyed to the simulation clock, and the operational HTTP surface
// (/metrics, /healthz, /debug/vars, /debug/pprof) the daemons mount.
//
// Every instrument is lock-free on the hot path (atomic CAS on float64
// bits), so a full-scale study — tens of millions of monitor probes —
// can be instrumented with negligible overhead. Instruments registered
// on a Registry are always exported, even at zero, so scrapers see the
// complete family set from the first poll cycle.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas panic (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(v)
}

// Value reports the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add adjusts the value by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// DefBuckets are the default latency buckets (seconds), spanning sub-ms
// in-process stages through multi-second network fetches.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ScoreBuckets suit values in [0, 1] such as classifier probabilities.
var ScoreBuckets = []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1}

// Histogram observes a distribution into fixed buckets. The +Inf bucket
// is implicit.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last = +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	for i := 1; i < len(upper); i++ {
		if upper[i] == upper[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bucket %v", upper[i]))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket — the standard Prometheus estimation.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(h.upper) {
				lower = h.upper[i]
			}
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.upper) { // +Inf bucket: no upper bound to interpolate to
				return lower
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + frac*(h.upper[i]-lower)
		}
		cum += n
		lower = h.upper[i]
	}
	return lower
}

// metricKind discriminates the instrument families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its type, help, label schema, and series.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	fn func() float64 // kindGaugeFunc only

	mu     sync.RWMutex
	series map[string]*series // keyed by joined label values
}

// series is one labeled instrument within a family.
type series struct {
	values []string
	inst   any // *Counter, *Gauge, or *Histogram
}

// get returns the series of values, creating it on first use. The key is
// built in a stack buffer, so looking up an existing series allocates
// nothing; only a new series allocates its key string.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := appendKey(buf[:0], values)
	f.mu.RLock()
	s := f.series[string(key)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[string(key)]; s != nil {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.inst = &Counter{}
	case kindGauge:
		s.inst = &Gauge{}
	case kindHistogram:
		s.inst = newHistogram(f.buckets)
	}
	f.series[string(key)] = s
	return s
}

// appendKey appends the series map key of values to b: the values joined
// by 0x1f (unit separator), which cannot appear in reasonable label
// values; values containing it still round-trip because the series
// stores its own copy of the value slice.
func appendKey(b []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return b
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry. All methods are safe for concurrent use, and
// registration is idempotent: re-registering a name with the same type
// returns the existing instrument, so package-level wiring can be lazy.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// familyFor is the registration core shared by every constructor.
func (r *Registry) familyFor(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.familyFor(name, help, kindCounter, nil, nil).get(nil).inst.(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.familyFor(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.familyFor(name, help, kindGauge, nil, nil).get(nil).inst.(*Gauge)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is computed at export time. fn
// must be safe for concurrent use: scrapes run on the HTTP serving
// goroutine while the pipeline is mid-cycle.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.familyFor(name, help, kindGaugeFunc, nil, nil)
	f.fn = fn
}

// Histogram registers (or fetches) an unlabeled histogram. nil buckets
// selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.familyFor(name, help, kindHistogram, nil, buckets).get(nil).inst.(*Histogram)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	return &HistogramVec{f: r.familyFor(name, help, kindHistogram, labels, buckets)}
}

// CounterVec is a counter family addressed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The result may be cached by callers on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).inst.(*Counter) }

// GaugeVec is a gauge family addressed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).inst.(*Gauge) }

// HistogramVec is a histogram family addressed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).inst.(*Histogram) }

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	Upper      float64 // upper bound; math.Inf(1) for the overflow bucket
	Cumulative uint64  // observations <= Upper
}

// Sample is one exported series in a Snapshot.
type Sample struct {
	Name   string
	Type   string // "counter", "gauge", or "histogram"
	Labels map[string]string
	// Value is the counter/gauge value; for histograms it is the sum.
	Value float64
	// Count and Buckets are set for histograms only.
	Count   uint64
	Buckets []Bucket
}

// Snapshot returns every registered series, sorted by name then label
// signature — the stable flat view dashboards consume.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, f := range r.sortedFamilies() {
		if f.kind == kindGaugeFunc {
			out = append(out, Sample{Name: f.name, Type: "gauge", Value: f.fn()})
			continue
		}
		for _, s := range f.sortedSeries() {
			smp := Sample{Name: f.name, Type: f.kind.String()}
			if len(f.labels) > 0 {
				smp.Labels = make(map[string]string, len(f.labels))
				for i, l := range f.labels {
					smp.Labels[l] = s.values[i]
				}
			}
			switch inst := s.inst.(type) {
			case *Counter:
				smp.Value = inst.Value()
			case *Gauge:
				smp.Value = inst.Value()
			case *Histogram:
				smp.Value = inst.Sum()
				smp.Count = inst.Count()
				var cum uint64
				for i := range inst.counts {
					cum += inst.counts[i].Load()
					upper := math.Inf(1)
					if i < len(inst.upper) {
						upper = inst.upper[i]
					}
					smp.Buckets = append(smp.Buckets, Bucket{Upper: upper, Cumulative: cum})
				}
			}
			out = append(out, smp)
		}
	}
	return out
}

// Value is a convenience lookup: the current value of an unlabeled
// counter or gauge, or NaN when the name is unknown.
func (r *Registry) Value(name string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return math.NaN()
	}
	if f.kind == kindGaugeFunc {
		return f.fn()
	}
	f.mu.RLock()
	s := f.series[""]
	f.mu.RUnlock()
	if s == nil {
		return math.NaN()
	}
	switch inst := s.inst.(type) {
	case *Counter:
		return inst.Value()
	case *Gauge:
		return inst.Value()
	case *Histogram:
		return inst.Sum()
	}
	return math.NaN()
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.RUnlock()
	return out
}
