package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over fewer than 1,000 samples would rest on fewer than ten values.
const minBeyond = 10

// tailQuantile returns the quantile to report as a distribution's tail for
// n samples: want itself when at least minBeyond samples lie beyond it,
// otherwise the highest quantile that leaves minBeyond samples beyond it,
// and never less than the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q·n samples at or below it. It is NaN when sorted is
// empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps 0.99·1000 = 990.0000000000001 from rounding up a rank.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// dist summarizes one timing distribution the way every per-layer timing is
// reported: the median, the tail at the quantile tailQuantile allows, and
// the sample count.
type dist struct {
	P50, Tail float64
	N         int
}

func summarize(samples []float64, want float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{P50: quantile(s, 0.5), Tail: quantile(s, tailQuantile(len(s), want)), N: len(s)}
}

// median of a small set of repeated measurements (NaN when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a traced replay in memory; writeJSONL dumps
// them once the replay is over, so recording costs one append per span.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// durations returns the wall time of every span named name, in µs.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover. Overlapping children (work
// run concurrently) are counted once, and child time outside the parent's
// interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = (p.End - p.Start) - covered(p, children[i])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfSeconds sums the self time of every span named name.
func selfSeconds(spans []span, name string) float64 {
	var ns int64
	for i, s := range selfTimes(spans) {
		if spans[i].Name == name {
			ns += s
		}
	}
	return float64(ns) / 1e9
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
