package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunPopulatesMetrics runs a small monitored study and asserts the
// observability layer saw every pipeline stage: the expected metric
// families are non-zero, the tracer covered the stages, and the progress
// hook fired every poll cycle.
func TestRunPopulatesMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Scale = 0.003
	cfg.TrainPerClass = 60
	cfg.MonitorInterval = 12 * time.Hour

	var progressCalls int
	var lastFrac float64
	cfg.Progress = func(ev ProgressEvent) {
		progressCalls++
		if ev.Frac < lastFrac {
			t.Errorf("progress fraction went backwards: %v -> %v", lastFrac, ev.Frac)
		}
		lastFrac = ev.Frac
	}

	fp := New(cfg) // Run trains lazily, recording the train span
	study, err := fp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Records) == 0 {
		t.Fatal("empty study")
	}

	reg := fp.Metrics.Registry
	for _, name := range []string{
		"freephish_polls_total",
		"freephish_urls_streamed_total",
		"freephish_study_records_total",
		"freephish_monitor_probes_total",
	} {
		if v := reg.Value(name); !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if got, want := reg.Value("freephish_study_records_total"), float64(len(study.Records)); got != want {
		t.Errorf("records counter = %v, want %v", got, want)
	}
	if got, want := reg.Value("freephish_polls_total"), float64(fp.Stats().Polls); got != want {
		t.Errorf("polls counter = %v, want Stats.Polls = %v", got, want)
	}
	if progressCalls != fp.Stats().Polls {
		t.Errorf("progress fired %d times, want one per poll (%d)", progressCalls, fp.Stats().Polls)
	}

	// The Prometheus exposition must cover every pipeline stage family.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		"freephish_polls_total",          // poller
		"freephish_posts_seen_total",     // poller
		"freephish_fetch_seconds",        // fetcher
		"freephish_fetch_total",          // fetcher
		"freephish_extract_seconds",      // feature extraction
		"freephish_classify_seconds",     // classifier
		"freephish_classifier_score",     // classifier
		"freephish_classified_total",     // classifier
		"freephish_reports_total",        // reporter
		"freephish_monitor_probes_total", // active monitor
		"freephish_stage_seconds",        // tracer
		"freephish_sim_time_seconds",     // sim clock
	} {
		if !strings.Contains(out, "# TYPE "+family) {
			t.Errorf("exposition missing family %s", family)
		}
	}

	// Tracer: every instrumented stage ran, wall time is positive, and
	// the sim-time window of the poll stage spans the study.
	stages := make(map[string]bool)
	for _, st := range fp.Metrics.Tracer.Snapshot() {
		stages[st.Stage] = true
		if st.Count == 0 || st.Wall <= 0 {
			t.Errorf("stage %s: count=%d wall=%v", st.Stage, st.Count, st.Wall)
		}
		if st.Stage == "poll" {
			if st.SimSpan < cfg.Duration/2 {
				t.Errorf("poll stage sim span %v implausibly short", st.SimSpan)
			}
			if st.PerSimHour <= 0 {
				t.Errorf("poll stage per-sim-hour rate = %v", st.PerSimHour)
			}
		}
	}
	for _, want := range []string{"train", "poll", "fetch", "classify", "assess", "report", "monitor"} {
		if !stages[want] {
			t.Errorf("tracer never saw stage %q (saw %v)", want, stages)
		}
	}

	// Classifier decision counters reconcile with Stats.
	var decided float64
	for _, s := range reg.Snapshot() {
		if s.Name == "freephish_classified_total" {
			decided += s.Value
		}
	}
	if int(decided) != fp.Stats().URLsScanned {
		// Every scanned URL that resolved to a hosted site is classified;
		// allow for lookups that missed (site == nil).
		if int(decided) > fp.Stats().URLsScanned {
			t.Errorf("decisions %v > scanned %d", decided, fp.Stats().URLsScanned)
		}
	}
}

// normalizeExposition reduces a Prometheus text exposition to its schema:
// HELP/TYPE headers and series identities (name plus label set), with the
// sampled values stripped. Counts are seed-deterministic but wall-clock
// histograms are not, so the schema — which series exist, how they are
// labeled, how they are documented — is the right thing to golden.
func normalizeExposition(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsExpositionSchemaGolden locks the full /metrics surface of a
// seeded mini-study against testdata/metrics_schema.golden. A renamed
// metric, a dropped label, or a lost HELP string is an observability
// regression that dashboards and alerts feel immediately — this test makes
// it a diff instead. Regenerate deliberately with:
//
//	METRICS_SCHEMA_GOLDEN=rewrite go test ./internal/core -run TestMetricsExpositionSchemaGolden
func TestMetricsExpositionSchemaGolden(t *testing.T) {
	cfg := streamSweepConfig(1, 1, BackendInproc)
	cfg.Journal = true // include the traced variant of the pipeline
	f := newCached(cfg)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := f.Metrics.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := normalizeExposition(b.String())

	golden := filepath.Join("testdata", "metrics_schema.golden")
	if os.Getenv("METRICS_SCHEMA_GOLDEN") == "rewrite" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", golden, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with METRICS_SCHEMA_GOLDEN=rewrite)", err)
	}
	if got == string(want) {
		return
	}
	a := strings.Split(string(want), "\n")
	c := strings.Split(got, "\n")
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] != c[i] {
			t.Fatalf("exposition schema diverges from golden at line %d:\ngolden: %s\ngot:    %s\n(regenerate deliberately with METRICS_SCHEMA_GOLDEN=rewrite)", i+1, a[i], c[i])
		}
	}
	t.Fatalf("exposition schema length diverges: golden %d lines, got %d (regenerate with METRICS_SCHEMA_GOLDEN=rewrite)", len(a), len(c))
}

// TestPollQuotaMetrics enables the poller rate limiter and checks the
// quota-pressure gauges are exported.
func TestPollQuotaMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	// Two requests per poll cycle are needed (one per platform); a
	// 1-token bucket refilled slowly guarantees throttling.
	cfg.PollQuota = 1
	cfg.PollQuotaRate = 1.0 / (20 * 60) // one token per 20 sim-minutes

	fp := newCached(cfg)
	if _, err := fp.Run(); err != nil {
		t.Fatal(err)
	}
	if fp.poller.Skipped == 0 {
		t.Fatal("limiter never throttled; quota config ineffective")
	}
	reg := fp.Metrics.Registry
	if v := reg.Value("freephish_poll_skipped_total"); int(v) != fp.poller.Skipped {
		t.Errorf("poll_skipped = %v, want %d", v, fp.poller.Skipped)
	}
	if v := reg.Value("freephish_ratelimit_throttled_total"); !(v > 0) {
		t.Errorf("ratelimit_throttled = %v, want > 0", v)
	}
	if v := reg.Value("freephish_ratelimit_wait_seconds_total"); !(v > 0) {
		t.Errorf("ratelimit_wait_seconds = %v, want > 0", v)
	}
}
