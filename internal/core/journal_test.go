package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"freephish/internal/faults"
	"freephish/internal/obs"
)

// journalSweepRun executes one traced study and returns the canonical
// journal bytes.
func journalSweepRun(t *testing.T, workers, depth int, backend string, prof *faults.Profile) []byte {
	t.Helper()
	cfg := streamSweepConfig(workers, depth, backend)
	cfg.Journal = true
	cfg.Faults = prof
	f := newCached(cfg)
	if _, err := f.Run(); err != nil {
		t.Fatalf("workers=%d depth=%d backend=%s faults=%v: %v", workers, depth, backend, prof != nil, err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("workers=%d depth=%d backend=%s failed verification: %v", workers, depth, backend, err)
	}
	var buf bytes.Buffer
	if err := f.Metrics.Journal.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func diffJournals(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	a := strings.Split(string(want), "\n")
	b := strings.Split(string(got), "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: journal diverges at event %d:\nbaseline: %s\ngot:      %s", label, i, a[i], b[i])
		}
	}
	t.Fatalf("%s: journal lengths diverge: %d vs %d events", label, len(a), len(b))
}

// TestJournalDeterminism is the `make verify-journal` gate: the canonical
// lifecycle journal, like the study output itself, must be byte-identical
// across workers × queue-depth × backend — and unchanged under the
// default chaos profile, because the retry layer absorbs every injected
// failure before it can reach a lifecycle event.
func TestJournalDeterminism(t *testing.T) {
	base := journalSweepRun(t, 1, 1, BackendInproc, nil)
	if len(base) == 0 {
		t.Fatal("traced study produced an empty journal; the sweep is vacuous")
	}
	// The journal actually covers the lifecycle, not just one event kind.
	for _, typ := range []string{
		obs.EvPosted, obs.EvPolled, obs.EvFetched, obs.EvClassified,
		obs.EvReported, obs.EvTakedown, obs.EvRecheck,
	} {
		if !strings.Contains(string(base), fmt.Sprintf("%q", typ)) {
			t.Errorf("journal has no %s events", typ)
		}
	}

	for _, workers := range []int{1, 8} {
		for _, depth := range []int{1, 64} {
			if workers == 1 && depth == 1 {
				continue
			}
			got := journalSweepRun(t, workers, depth, BackendInproc, nil)
			diffJournals(t, fmt.Sprintf("inproc workers=%d depth=%d", workers, depth), base, got)
		}
	}
	got := journalSweepRun(t, 8, 64, BackendHTTP, nil)
	diffJournals(t, "http workers=8 depth=64", base, got)

	prof := faults.DefaultProfile()
	got = journalSweepRun(t, 8, 64, BackendInproc, &prof)
	diffJournals(t, "inproc workers=8 depth=64 chaos=default", base, got)
}

// TestJournalMatchesResultAPI: the journal surfaced through the public
// StudyResult is the same one core records, and running without the knob
// returns a clear error instead of an empty file.
func TestJournalMatchesResultAPI(t *testing.T) {
	cfg := streamSweepConfig(1, 1, BackendInproc)
	cfg.Journal = true
	f := newCached(cfg)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	j := f.Metrics.Journal
	if j == nil || j.Len() == 0 {
		t.Fatal("Config.Journal did not produce a populated journal")
	}

	// Every traced URL's events arrive in lifecycle order: posted is
	// always first, and nothing precedes the poll that surfaced it.
	for _, url := range j.URLs() {
		trace := j.Trace(url)
		if trace[0].Type != obs.EvPosted {
			t.Fatalf("%s: first event is %s, want %s", url, trace[0].Type, obs.EvPosted)
		}
		seen := map[string]bool{}
		for _, ev := range trace {
			seen[ev.Type] = true
		}
		if seen[obs.EvClassified] && !seen[obs.EvFetched] {
			t.Fatalf("%s: classified without a fetched event", url)
		}
	}

	// Tracing off → nil journal, and the fast path stays nil-safe.
	cfg2 := streamSweepConfig(1, 1, BackendInproc)
	f2 := newCached(cfg2)
	if f2.Metrics.Journal != nil {
		t.Fatal("journal allocated with Config.Journal=false")
	}
}
