package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func testClock(start time.Time) func() time.Time {
	t := start
	return func() time.Time { return t }
}

// TestJournalLifecycle covers the canonical record path: sequence
// numbering, per-URL traces, counts, and first-seen URL ordering.
func TestJournalLifecycle(t *testing.T) {
	sim := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	j := NewJournal(testClock(sim), 0)

	j.Record("http://a.weebly.com/", EvPosted, sim, "platform", "twitter")
	j.Record("http://b.weebly.com/", EvPosted, sim.Add(time.Hour))
	j.Record("http://a.weebly.com/", EvFetched, sim.Add(2*time.Hour), "status", "200")

	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	events := j.Events()
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Class != ClassLifecycle {
			t.Errorf("event %d class = %q", i, ev.Class)
		}
	}
	trace := j.Trace("http://a.weebly.com/")
	if len(trace) != 2 || trace[0].Type != EvPosted || trace[1].Type != EvFetched {
		t.Fatalf("Trace = %+v", trace)
	}
	if trace[0].Attrs["platform"] != "twitter" {
		t.Errorf("attrs not retained: %v", trace[0].Attrs)
	}
	urls := j.URLs()
	want := []string{"http://a.weebly.com/", "http://b.weebly.com/"}
	if len(urls) != 2 || urls[0] != want[0] || urls[1] != want[1] {
		t.Errorf("URLs = %v, want %v (first-seen order)", urls, want)
	}
	counts := j.Counts()
	if counts[EvPosted] != 2 || counts[EvFetched] != 1 {
		t.Errorf("Counts = %v", counts)
	}
}

// TestJournalRebuildInPlace: Rebuild swaps the lifecycle sequence of the
// same journal for the given events, renumbered, and keeps the ring and
// the ops events' counts; recording goes on after the rebuilt sequence.
func TestJournalRebuildInPlace(t *testing.T) {
	sim := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	j := NewJournal(testClock(sim), 0)
	j.Record("http://b.weebly.com/", EvPosted, sim)
	j.RecordOps("", EvShardDispatch, "shard", "0")
	j.Record("http://a.weebly.com/", EvFetched, sim, "status", "200")
	merged := []Event{
		{Seq: 7, Class: ClassLifecycle, Type: EvPosted, URL: "http://a.weebly.com/", Sim: sim},
		{Seq: 3, Class: ClassLifecycle, Type: EvPosted, URL: "http://c.weebly.com/", Sim: sim},
	}
	j.Rebuild(merged)
	if merged[0].Seq != 7 {
		t.Fatal("Rebuild renumbered the caller's events")
	}
	events := j.Events()
	if len(events) != 2 || events[0].Seq != 0 || events[1].Seq != 1 || events[1].URL != "http://c.weebly.com/" {
		t.Fatalf("rebuilt lifecycle = %+v", events)
	}
	if tr := j.Trace("http://a.weebly.com/"); len(tr) != 1 || tr[0].Type != EvPosted {
		t.Fatalf("Trace after Rebuild = %+v", tr)
	}
	if tr := j.Trace("http://b.weebly.com/"); len(tr) != 0 {
		t.Fatalf("a replaced event is still traced: %+v", tr)
	}
	counts := j.Counts()
	if counts[EvPosted] != 2 || counts[EvFetched] != 0 || counts[EvShardDispatch] != 1 {
		t.Fatalf("Counts after Rebuild = %v, want the rebuilt lifecycle's and the ops events'", counts)
	}
	if _, ok := counts[EvFetched]; ok {
		t.Fatalf("Counts keeps a zero entry for a replaced type: %v", counts)
	}
	if tail := j.Tail(10); len(tail) != 3 || tail[1].Type != EvShardDispatch {
		t.Fatalf("Tail after Rebuild = %+v, want the live ring", tail)
	}
	j.Record("http://d.weebly.com/", EvPosted, sim)
	if events := j.Events(); len(events) != 3 || events[2].Seq != 2 {
		t.Fatalf("recording after Rebuild = %+v", events)
	}
}

// TestJournalOpsClassSeparation verifies ops events never reach the
// canonical lifecycle sequence — only the ring — and carry their own
// sequence space.
func TestJournalOpsClassSeparation(t *testing.T) {
	sim := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	j := NewJournal(testClock(sim), 0)

	j.RecordOps("", EvStage, "pipe", "poll", "stage", "fetch")
	j.Record("http://a.weebly.com/", EvPolled, sim)
	j.RecordOps("", EvRetry, "key", "intel.resolve")

	if j.Len() != 1 {
		t.Fatalf("ops events leaked into the lifecycle: Len = %d", j.Len())
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), EvStage) || strings.Contains(buf.String(), EvRetry) {
		t.Fatalf("ops events leaked into the canonical JSONL:\n%s", buf.String())
	}
	tail := j.Tail(10)
	if len(tail) != 3 {
		t.Fatalf("Tail = %d events, want all 3", len(tail))
	}
	if tail[0].Type != EvStage || tail[1].Type != EvPolled || tail[2].Type != EvRetry {
		t.Errorf("tail order = %s,%s,%s", tail[0].Type, tail[1].Type, tail[2].Type)
	}
	// Each class numbers independently.
	if tail[0].Seq != 0 || tail[2].Seq != 1 {
		t.Errorf("ops seqs = %d,%d, want 0,1", tail[0].Seq, tail[2].Seq)
	}
	if tail[1].Seq != 0 {
		t.Errorf("lifecycle seq = %d, want 0", tail[1].Seq)
	}
}

// TestJournalRingEviction fills a small ring past capacity and checks the
// tail holds only the newest events.
func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(testClock(time.Unix(0, 0)), 4)
	for i := 0; i < 10; i++ {
		j.RecordOps("", EvStage, "n", string(rune('0'+i)))
	}
	tail := j.Tail(100)
	if len(tail) != 4 {
		t.Fatalf("Tail = %d events, want ring cap 4", len(tail))
	}
	if tail[0].Attrs["n"] != "6" || tail[3].Attrs["n"] != "9" {
		t.Errorf("ring kept %v..%v, want 6..9", tail[0].Attrs["n"], tail[3].Attrs["n"])
	}
}

// TestJournalJSONLRoundTrip writes the canonical journal and reads it
// back; the bytes must be stable across repeated writes (the property the
// verify-journal sweep depends on) and survive a round trip.
func TestJournalJSONLRoundTrip(t *testing.T) {
	sim := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	j := NewJournal(testClock(sim), 0)
	j.Record("http://a.weebly.com/", EvPosted, sim, "platform", "twitter", "post", "tw-1")
	j.Record("http://a.weebly.com/", EvClassified, sim.Add(time.Minute),
		"score", "0.91", "verdict", "phishing", "top", "form_count:+0.0312")

	var one, two bytes.Buffer
	if err := j.WriteJSONL(&one); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteJSONL(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("WriteJSONL is not deterministic for the same journal")
	}
	// Wall time must never appear — it would break byte-identity.
	if strings.Contains(one.String(), "wall") {
		t.Fatalf("canonical JSONL contains wall time:\n%s", one.String())
	}

	events, err := ReadJournal(&one)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("round trip lost events: %d", len(events))
	}
	orig := j.Events()
	for i, ev := range events {
		if ev.Seq != orig[i].Seq || ev.Type != orig[i].Type || ev.URL != orig[i].URL || !ev.Sim.Equal(orig[i].Sim) {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, ev, orig[i])
		}
		for k, v := range orig[i].Attrs {
			if ev.Attrs[k] != v {
				t.Errorf("event %d attr %s = %q, want %q", i, k, ev.Attrs[k], v)
			}
		}
	}
}

// TestJournalSink verifies streamed lines equal the batch WriteJSONL
// output, and that sink errors are retained.
func TestJournalSink(t *testing.T) {
	sim := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	j := NewJournal(testClock(sim), 0)
	var streamed bytes.Buffer
	j.SetSink(&streamed)
	j.Record("http://a.weebly.com/", EvPosted, sim)
	j.RecordOps("", EvStage, "pipe", "poll") // ops events never stream
	j.Record("http://a.weebly.com/", EvTakedown, sim.Add(time.Hour), "via", "host")

	var batch bytes.Buffer
	if err := j.WriteJSONL(&batch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Errorf("sink stream diverges from WriteJSONL:\n--- sink ---\n%s--- batch ---\n%s",
			streamed.String(), batch.String())
	}
	if j.SinkErr() != nil {
		t.Errorf("SinkErr = %v", j.SinkErr())
	}
}

// TestJournalNilSafe: every method must be a no-op on a nil journal — the
// disabled-tracing fast path.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record("u", EvPosted, time.Time{})
	j.RecordOps("u", EvStage)
	j.SetSink(&bytes.Buffer{})
	if j.Len() != 0 || j.Events() != nil || j.Trace("u") != nil || j.URLs() != nil ||
		j.Tail(5) != nil || j.Counts() != nil || j.SinkErr() != nil {
		t.Error("nil journal methods must return zero values")
	}
	if err := j.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL = %v", err)
	}
}

// TestJournalConcurrentOps hammers RecordOps from many goroutines (run
// with -race); the ring and counters must stay consistent.
func TestJournalConcurrentOps(t *testing.T) {
	j := NewJournal(nil, 64)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.RecordOps("", EvStage, "pipe", "poll")
			}
		}()
	}
	wg.Wait()
	if got := j.Counts()[EvStage]; got != workers*per {
		t.Errorf("counts = %d, want %d", got, workers*per)
	}
	if got := len(j.Tail(1000)); got != 64 {
		t.Errorf("tail = %d, want ring cap 64", got)
	}
}
