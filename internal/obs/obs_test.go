package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives every instrument kind from many goroutines
// at once; run with -race. The totals must be exact — atomic float adds
// lose nothing under contention.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "t")
	g := reg.Gauge("hammer_gauge", "t")
	h := reg.Histogram("hammer_seconds", "t", []float64{0.5, 1, 2})
	cv := reg.CounterVec("hammer_labeled_total", "t", "worker")
	hv := reg.HistogramVec("hammer_labeled_seconds", "t", []float64{1}, "worker")

	const workers = 16
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%3) * 0.75)
				cv.With(name).Add(2)
				hv.With(name).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()

	const n = workers * perWorker
	if got := c.Value(); got != n {
		t.Errorf("counter = %v, want %v", got, n)
	}
	if got := g.Value(); got != n {
		t.Errorf("gauge = %v, want %v", got, n)
	}
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %v, want %v", got, n)
	}
	var labeledTotal float64
	for _, s := range reg.Snapshot() {
		if s.Name == "hammer_labeled_total" {
			labeledTotal += s.Value
		}
	}
	if labeledTotal != 2*n {
		t.Errorf("labeled counter sum = %v, want %v", labeledTotal, 2*n)
	}
}

// TestHistogramBuckets checks the bucket boundary convention (le is
// inclusive) and the quantile estimator.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1} // <=1, (1,2], (2,4], +Inf
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Sum() != 13 {
		t.Errorf("sum = %v, want 13", h.Sum())
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("median estimate %v outside [1,2]", q)
	}
	var empty Histogram
	if !math.IsNaN((&empty).Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

// TestWritePrometheusGolden locks the exact text-exposition output for a
// small registry: HELP/TYPE headers, label escaping, histogram buckets
// with cumulative counts, sorted family and series order.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("study_urls_total", "URLs observed.")
	c.Add(42)
	g := reg.Gauge("sim_time_seconds", "Virtual seconds elapsed.")
	g.Set(86400)
	cv := reg.CounterVec("fetch_total", "Fetches by status.", "status")
	cv.With("200").Add(7)
	cv.With("404").Inc()
	h := reg.Histogram("fetch_seconds", "Fetch latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	reg.CounterVec("escaped_total", "Escaping.", "v").With("a\"b\\c\nd").Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP escaped_total Escaping.
# TYPE escaped_total counter
escaped_total{v="a\"b\\c\nd"} 1
# HELP fetch_seconds Fetch latency.
# TYPE fetch_seconds histogram
fetch_seconds_bucket{le="0.1"} 1
fetch_seconds_bucket{le="1"} 2
fetch_seconds_bucket{le="+Inf"} 3
fetch_seconds_sum 3.55
fetch_seconds_count 3
# HELP fetch_total Fetches by status.
# TYPE fetch_total counter
fetch_total{status="200"} 7
fetch_total{status="404"} 1
# HELP sim_time_seconds Virtual seconds elapsed.
# TYPE sim_time_seconds gauge
sim_time_seconds 86400
# HELP study_urls_total URLs observed.
# TYPE study_urls_total counter
study_urls_total 42
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrationIdempotent verifies re-registration returns the same
// instrument, and schema changes panic.
func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("instruments not shared")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on type mismatch")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestValidNames(t *testing.T) {
	for _, bad := range []string{"", "1abc", "a-b", "a b", "a{b}"} {
		func() {
			defer func() { recover() }()
			NewRegistry().Counter(bad, "")
			t.Errorf("name %q should have panicked", bad)
		}()
	}
	NewRegistry().Counter("ok_name:v2", "") // must not panic
}

// TestGaugeFunc covers export-time computed gauges.
func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 3.5
	reg.GaugeFunc("live_value", "Computed.", func() float64 { return v })
	if got := reg.Value("live_value"); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
	v = 7
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "live_value 7\n") {
		t.Errorf("gauge func not re-evaluated at export:\n%s", b.String())
	}
}

// TestOpsMux exercises the full operational surface over HTTP.
func TestOpsMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total", "t").Inc()
	healthErr := error(nil)
	mux := NewOps(reg, OpsOptions{Healthz: func() error { return healthErr }})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "ops_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d (len %d)", code, len(body))
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if !OpsPaths("/metrics") || !OpsPaths("/debug/pprof/heap") || OpsPaths("/index.html") {
		t.Error("OpsPaths misclassifies")
	}
}

// TestWithExistingSeriesAllocatesNothing pins the cost of a labelled
// lookup that hits: the pipeline and the evaluator look up two-label
// series on every busy cycle and every decision.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_decisions_total", "decisions", "cohort", "kind")
	h := r.HistogramVec("test_stage_seconds", "stage time", []float64{1}, "stage")
	cohort, kind, stage := "fwb", "tp", "fetch"
	c.With(cohort, kind).Inc()
	h.With(stage).Observe(0.5)
	if got := testing.AllocsPerRun(100, func() {
		c.With(cohort, kind).Inc()
		h.With(stage).Observe(0.5)
	}); got != 0 {
		t.Fatalf("With on existing series allocates %v times, want 0", got)
	}
	if got := c.With(cohort, kind).Value(); got != 102 {
		t.Fatalf("counter = %v, want 102", got)
	}
}
