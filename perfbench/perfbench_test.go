package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/core"
	"freephish/internal/threat"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantQ    float64
		wantTail float64
	}{
		{5000, 0.99, 4950},
		{1000, 0.99, 990}, // exactly 10 samples above 990
		{999, 1 - 10.0/999, 989},
		{500, 0.98, 490},
		{100, 0.90, 90},
		{20, 0.5, 10},
		{10, 0.5, 5}, // too few for any tail: the median stands in
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		q := tailQuantile(tc.n, 0.99)
		if q != tc.wantQ {
			t.Errorf("n=%d: quantile %v, want %v", tc.n, q, tc.wantQ)
		}
		tail := quantile(sorted, q)
		if tail != tc.wantTail {
			t.Errorf("n=%d: tail %v, want %v", tc.n, tail, tc.wantTail)
		}
		if tc.n >= 20 && float64(tc.n)-tail < minBeyond {
			t.Errorf("n=%d: only %v samples beyond the tail", tc.n, float64(tc.n)-tail)
		}
	}
}

func TestSummarizeStatesSampleCount(t *testing.T) {
	d := summarize([]float64{5, 1, 4, 2, 3}, 0.99)
	if d.P50 != 3 || d.N != 5 || d.Tail != 3 {
		t.Fatalf("summarize = %+v, want median 3, tail 3 (too few samples), n 5", d)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "cycle", Parent: -1, Start: 0, End: 100},
		{Name: "poll", Parent: 0, Start: 10, End: 30},
		{Name: "fetch", Parent: 0, Start: 20, End: 40},    // overlaps poll: counted once
		{Name: "late", Parent: 0, Start: 90, End: 120},    // clipped at the parent's end
		{Name: "inner", Parent: 1, Start: 12, End: 18},    // a grandchild: not the cycle's child
		{Name: "cycle", Parent: -1, Start: 200, End: 210}, // no children: all self
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if s := selfSeconds(spans, "cycle"); s != 70e-9 {
		t.Fatalf("selfSeconds(cycle) = %v, want 70ns", s)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	outer := rec.start("outer", -1)
	inner := rec.start("inner", outer)
	rec.end(inner)
	rec.end(outer)
	if rec.spans[inner].Parent != outer || rec.spans[outer].End < rec.spans[inner].End {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if n := len(rec.durations("inner")); n != 1 {
		t.Fatalf("durations(inner) has %d samples, want 1", n)
	}
}

func testStudy(urls ...string) *analysis.Study {
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	s := &analysis.Study{}
	for i, u := range urls {
		s.Add(&analysis.Record{
			Target:       &threat.Target{URL: u, SharedAt: at, Platform: threat.Twitter},
			Classified:   true,
			ClassifiedAt: at.Add(time.Duration(i) * time.Minute),
		})
	}
	return s
}

func TestStudyDigest(t *testing.T) {
	st := core.Stats{Polls: 3, PostsSeen: 2, TruePositives: 2}
	a, err := studyDigest(testStudy("http://a.example/", "http://b.example/"), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not a hex SHA-256", a)
	}
	same, _ := studyDigest(testStudy("http://a.example/", "http://b.example/"), st)
	if same != a {
		t.Fatal("equal studies digest differently")
	}
	for name, other := range map[string]func() (string, error){
		"records reordered": func() (string, error) {
			return studyDigest(testStudy("http://b.example/", "http://a.example/"), st)
		},
		"stats differ": func() (string, error) {
			st2 := st
			st2.FalsePositives++
			return studyDigest(testStudy("http://a.example/", "http://b.example/"), st2)
		},
	} {
		d, err := other()
		if err != nil {
			t.Fatal(err)
		}
		if d == a {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestAccountCountsFailedOperations(t *testing.T) {
	ok := func(d string) studyResult { return studyResult{Attempted: 100, Failed: 1, Digest: d} }
	for _, tc := range []struct {
		name        string
		children    []studyResult
		correct     bool
		att, failed int
	}{
		{"all agree", []studyResult{ok("x"), ok("x"), {}}, true, 200, 2},
		{"digest mismatch", []studyResult{ok("x"), ok("y")}, false, 200, 200},
		{"child error", []studyResult{ok("x"), {Attempted: 100, Err: "verify: bad"}}, false, 200, 200},
		{"child died before streaming", []studyResult{ok("x"), {Err: "killed"}}, false, 101, 101},
	} {
		r := account(tc.children)
		if r.Correct != tc.correct || r.Attempted != tc.att || r.Failed != tc.failed {
			t.Errorf("%s: got correct=%t attempted=%d failed=%d, want %t %d %d",
				tc.name, r.Correct, r.Attempted, r.Failed, tc.correct, tc.att, tc.failed)
		}
	}
}

func TestWorkloadsShareTrainingAndDenseInputs(t *testing.T) {
	for _, w := range allWorkloads {
		cfg := w.config(1)
		if got := int(float64(cfg.TrainPerClass) * cfg.Scale); got != trainCorpus {
			t.Errorf("%s trains on %d pages per class, want %d", w.name, got, trainCorpus)
		}
		if w.reference == "" {
			continue
		}
		ref, ok := lookupWorkload(w.reference)
		if !ok {
			t.Fatalf("%s: unknown reference %q", w.name, w.reference)
		}
		want := ref.config(1)
		cfg.Backend, cfg.Shards = want.Backend, want.Shards
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s differs from its reference %s beyond backend and shards", w.name, ref.name)
		}
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var runner []string
	for _, w := range workloads {
		runner = append(runner, w.name)
	}
	if !reflect.DeepEqual(names, runner) {
		t.Errorf("workloads %v, runner has %v", names, runner)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, runner has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, runner has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, runner has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i] || m.Unit != unitOf(perLayer[i]) {
			t.Errorf("per_layer[%d] = %s/%s, runner has %s/%s", i, m.Name, m.Unit, perLayer[i], unitOf(perLayer[i]))
		}
	}
}
