package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/faults"
	"freephish/internal/obs"
)

// cascadeRun executes one cascade-enabled traced study and returns the
// study records JSONL, the canonical journal JSONL, and the run's stats.
// cascade is a -cascade flag spec.
func cascadeRun(t *testing.T, workers, depth int, backend string, prof *faults.Profile, cascade string) (records, journal []byte, stats Stats) {
	t.Helper()
	cfg := streamSweepConfig(workers, depth, backend)
	cfg.Journal = true
	cfg.Faults = prof
	setCascade(t, &cfg, cascade)
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatalf("workers=%d depth=%d backend=%s: %v", workers, depth, backend, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("workers=%d depth=%d backend=%s failed verification: %v", workers, depth, backend, err)
	}
	var rbuf, jbuf bytes.Buffer
	if err := study.WriteJSONL(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	return rbuf.Bytes(), jbuf.Bytes(), f.Stats()
}

// setCascade sets cfg's cascade fields from a -cascade flag spec.
func setCascade(t *testing.T, cfg *Config, spec string) {
	t.Helper()
	var err error
	cfg.CascadeBenignBelow, cfg.CascadePhishAbove, cfg.CascadeOn, err = baselines.ParseCascadeThresholds(spec)
	if err != nil {
		t.Fatal(err)
	}
}

func diffCascadeRun(t *testing.T, label string, wantRec, gotRec, wantJournal, gotJournal []byte, wantStats, gotStats Stats) {
	t.Helper()
	if gotStats != wantStats {
		t.Fatalf("%s: stats diverge:\nbaseline: %+v\ngot:      %+v", label, wantStats, gotStats)
	}
	diffLines := func(kind string, want, got []byte) {
		if bytes.Equal(want, got) {
			return
		}
		a := strings.Split(string(want), "\n")
		b := strings.Split(string(got), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s: %s diverges at line %d:\nbaseline: %s\ngot:      %s", label, kind, i, a[i], b[i])
			}
		}
		t.Fatalf("%s: %s lengths diverge: %d vs %d lines", label, kind, len(a), len(b))
	}
	diffLines("study", wantRec, gotRec)
	diffLines("journal", wantJournal, gotJournal)
}

// cascadeReferenceDigest is cascadeDigest of TestCascadeDeterminism's
// reference run (workers 1, depth 1, inproc, no chaos).
const cascadeReferenceDigest = "fc9982bf544010385e0516cb92a325aa150634ec7332853e543a9f1949707e3b"

// cascadeDigest is the SHA-256 of a run's records JSONL, canonical
// journal JSONL and JSON-encoded stats, each length-prefixed.
func cascadeDigest(t *testing.T, records, journal []byte, stats Stats) string {
	t.Helper()
	st, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range [][]byte{records, journal, st} {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCascadeDeterminism is the cascade half of the `make verify-cascade`
// gate: with the cascade on at a fixed threshold pair, the study records
// AND the lifecycle journal must stay byte-identical across workers ×
// queue-depth × backend — and under the default chaos profile — exactly
// like the non-cascade study. Short-circuit verdicts are computed in a
// concurrent triage stage, but they are pure functions of the URL string,
// and every stateful effect still lands in the ordered apply phase.
func TestCascadeDeterminism(t *testing.T) {
	const cascade = "on"
	baseRec, baseJournal, baseStats := cascadeRun(t, 1, 1, BackendInproc, nil, cascade)

	// Non-vacuous: the triage tier actually short-circuited traffic, the
	// fall-through band still produced full classifications, and the
	// journal carries the new lifecycle event.
	if baseStats.LexicalBenign+baseStats.LexicalPhish == 0 {
		t.Fatal("cascade never short-circuited; the sweep is vacuous")
	}
	if baseStats.URLsScanned == 0 {
		t.Fatal("no URL fell through to the fetch path; the sweep is vacuous")
	}
	if !strings.Contains(string(baseJournal), fmt.Sprintf("%q", obs.EvClassifiedLexical)) {
		t.Fatalf("journal has no %s events", obs.EvClassifiedLexical)
	}
	if len(baseRec) == 0 {
		t.Fatal("cascade study produced no records")
	}
	// The sweep below only compares settings with each other; the pin
	// also catches a change that moves every setting alike.
	t.Run("reference_digest", func(t *testing.T) {
		if got := cascadeDigest(t, baseRec, baseJournal, baseStats); got != cascadeReferenceDigest {
			t.Fatalf("reference cascade run digest = %s, want %s", got, cascadeReferenceDigest)
		}
	})

	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 4, 64} {
			if workers == 1 && depth == 1 {
				continue
			}
			rec, journal, stats := cascadeRun(t, workers, depth, BackendInproc, nil, cascade)
			diffCascadeRun(t, fmt.Sprintf("inproc workers=%d depth=%d", workers, depth),
				baseRec, rec, baseJournal, journal, baseStats, stats)
		}
	}
	// The http backend re-runs the matrix corners.
	for _, c := range [][2]int{{1, 1}, {8, 64}} {
		rec, journal, stats := cascadeRun(t, c[0], c[1], BackendHTTP, nil, cascade)
		diffCascadeRun(t, fmt.Sprintf("http workers=%d depth=%d", c[0], c[1]),
			baseRec, rec, baseJournal, journal, baseStats, stats)
	}
	// And the default chaos profile must be absorbed by the retry layer
	// before it can perturb a lexical verdict or a record.
	prof := faults.DefaultProfile()
	rec, journal, stats := cascadeRun(t, 8, 64, BackendInproc, &prof, cascade)
	diffCascadeRun(t, "inproc workers=8 depth=64 chaos=default",
		baseRec, rec, baseJournal, journal, baseStats, stats)
}

// TestCascadeDegenerateEquivalence is the other half of the gate: the
// degenerate threshold pair (0, 1) can never short-circuit — Triage
// compares strictly, and the logistic score is clamped to [0, 1] — so a
// study run through the degenerate cascade must reproduce the
// cascade-off study byte-for-byte: same records, same journal, same
// stats. This pins the invariant that enabling the cascade machinery
// (including training the extra lexical model) perturbs nothing outside
// the short-circuits themselves.
func TestCascadeDegenerateEquivalence(t *testing.T) {
	offRec, offJournal, offStats := cascadeRun(t, 2, 4, BackendInproc, nil, "off")
	degRec, degJournal, degStats := cascadeRun(t, 2, 4, BackendInproc, nil, "0,1")
	if degStats.LexicalBenign+degStats.LexicalPhish != 0 {
		t.Fatalf("degenerate cascade short-circuited %d URLs, want 0",
			degStats.LexicalBenign+degStats.LexicalPhish)
	}
	diffCascadeRun(t, "off vs degenerate(0,1)", offRec, degRec, offJournal, degJournal, offStats, degStats)
	if strings.Contains(string(degJournal), fmt.Sprintf("%q", obs.EvClassifiedLexical)) {
		t.Fatalf("degenerate cascade journal contains %s events", obs.EvClassifiedLexical)
	}
}

// TestLexicalAdmissionSignature pins the page signature of a URL-only
// admission. Full-path admissions take it from the fetch stage's parse; a
// lexical record was never fetched and has no parse, so its signature is
// the empty page's: an empty, non-nil signature.
//
// The same run, with the cascade and the monitor on, checks that a study
// starts its graph goroutines once: the goroutine count is the same at
// every busy poll cycle, is bounded by the graphs' stages × workers
// however many cycles run, and falls back to the baseline once Run
// returns.
func TestLexicalAdmissionSignature(t *testing.T) {
	cfg := streamSweepConfig(2, 4, BackendInproc)
	setCascade(t, &cfg, "on")
	base := settledGoroutines()
	var f *FreePhish
	var busy []int
	fresh := 0
	cfg.Progress = func(ev ProgressEvent) {
		// A cycle is busy when a posted URL survived dedup into the graph.
		if n := ev.PostsSeen - int(f.Metrics.URLsDeduped.Value()); n > fresh {
			fresh = n
			busy = append(busy, runtime.NumGoroutine())
		}
	}
	f = newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	lexical := 0
	for _, r := range study.Records {
		if r.Tier != "lexical" {
			continue
		}
		lexical++
		if r.Signature == nil || len(r.Signature) != 0 {
			t.Fatalf("lexical record %s has signature %v, want an empty non-nil signature", r.Target.URL, r.Signature)
		}
	}
	if lexical == 0 {
		t.Fatal("no lexical admissions; the check is vacuous")
	}

	// Four stages (triage, fetch, classify, check), each a worker pool, a
	// closer and a reorder emitter, and one source per graph.
	bound := base + 4*(cfg.Workers+2) + 2
	if len(busy) < 2 {
		t.Fatalf("%d busy cycles; the goroutine check is vacuous", len(busy))
	}
	for i, n := range busy {
		if n != busy[0] || n <= base || n > bound {
			t.Fatalf("busy cycle %d ran with %d goroutines, the first with %d (baseline %d, bound %d): graph goroutines must start once per study", i, n, busy[0], base, bound)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines alive after Run, baseline %d: the study's graphs leaked", n, base)
	}
}

// settledGoroutines waits for goroutines that earlier tests left winding
// down to exit, and returns the settled count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
