package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/blocklist"
	"freephish/internal/fwb"
	"freephish/internal/obs"
	"freephish/internal/threat"
)

// refEnvelope is the reference encoding CheckpointEncoder must reproduce:
// marshal the payload, then marshal the envelope around it.
func refEnvelope(t *testing.T, kind string, version int, payload any) []byte {
	t.Helper()
	p, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(p)
	b, err := json.Marshal(checkpointFile{
		Version: version,
		Kind:    kind,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkCut encodes c with enc and compares it with the reference.
func checkCut(t *testing.T, label string, enc *CheckpointEncoder, c *Checkpoint) []byte {
	t.Helper()
	got, err := enc.Encode(c)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := refEnvelope(t, kindCheckpoint, checkpointVersion, c); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder diverged from json.Marshal: %s", label, firstDiff(got, want))
	}
	if len(got) != cap(got) {
		t.Fatalf("%s: output len %d, cap %d; want one exactly sized buffer", label, len(got), cap(got))
	}
	return got
}

// firstDiff describes where got and want first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d of %d/%d:\n got: %q\nwant: %q",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// awkward holds strings encoding/json escapes: HTML-significant bytes,
// the JavaScript line separators and invalid UTF-8.
const awkward = "a<b>&c\u2028d\u2029e\xff\xfe\"\\\n"

func eventAt(seq uint64, url string, at time.Time, attrs map[string]string) obs.Event {
	return obs.Event{Seq: seq, Class: obs.ClassLifecycle, Type: obs.EvClassified, URL: url, Sim: at, Ord: at, Attrs: attrs}
}

func TestCheckpointEncoderMatchesReference(t *testing.T) {
	at := time.Date(2022, 11, 15, 6, 0, 0, 0, time.UTC)
	withSnap := func(s *Snapshot) *Checkpoint {
		c := sampleCheckpoint()
		c.Snapshot = s
		return c
	}
	bare := sampleCheckpoint()
	bare.Poller, bare.Limiter, bare.Faults = nil, nil, nil
	rec := &analysis.Record{
		Target:       &threat.Target{URL: "http://x.example/" + awkward, Brand: awkward, PostID: awkward},
		ClassifiedAt: at,
		Tier:         awkward,
		Signature:    analysis.Signature{"<div>", awkward},
	}
	cases := []struct {
		name string
		c    *Checkpoint
	}{
		{"nil checkpoint", nil},
		{"sample", sampleCheckpoint()},
		{"nil snapshot", withSnap(nil)},
		{"nil records", withSnap(&Snapshot{Stats: Stats{Polls: 3}})},
		{"empty records", withSnap(&Snapshot{Records: []*analysis.Record{}, Events: []obs.Event{}})},
		{"nil record element", withSnap(&Snapshot{Records: []*analysis.Record{nil, rec}})},
		{"no poller, limiter or faults", bare},
		{"events and observations", withSnap(&Snapshot{
			Records: []*analysis.Record{rec},
			Observations: map[string]*Observation{
				"http://x.example": {HostDownAt: at, Listings: map[string]time.Time{"gsb": at}, Probes: 4},
				awkward:            {},
			},
			Seen: []string{awkward, "http://x.example"},
			Events: []obs.Event{
				eventAt(0, "http://x.example", at, map[string]string{"verdict": "phish", awkward: awkward}),
				eventAt(1, awkward, at.Add(time.Minute), nil),
				eventAt(2, "u", at, map[string]string{}),
			},
		})},
		{"escaped fingerprint", func() *Checkpoint { c := sampleCheckpoint(); c.Fingerprint = awkward; return c }()},
	}
	for _, tc := range cases {
		checkCut(t, tc.name, new(CheckpointEncoder), tc.c)
		data, err := EncodeCheckpoint(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEnvelope(t, kindCheckpoint, checkpointVersion, tc.c); !bytes.Equal(data, want) {
			t.Fatalf("%s: EncodeCheckpoint diverged from the reference", tc.name)
		}
		if tc.c == nil {
			continue
		}
		wire, err := EncodeSnapshotWire(tc.c.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEnvelope(t, kindSnapshot, snapshotWireVersion, tc.c.Snapshot); !bytes.Equal(wire, want) {
			t.Fatalf("%s: EncodeSnapshotWire diverged from the reference: %s", tc.name, firstDiff(wire, want))
		}
	}
}

// TestCheckpointEncoderSuccessiveCuts drives one encoder through the cuts
// of a run: records and events appended between cuts, then the cases that
// break the cached record prefix (a canonical sort, a restore that
// rebuilds equal records at new addresses, a shorter record set) and
// edits to the events, which are encoded afresh at every cut.
func TestCheckpointEncoderSuccessiveCuts(t *testing.T) {
	at := time.Date(2022, 11, 15, 6, 0, 0, 0, time.UTC)
	st := New()
	var events []obs.Event
	cut := func(n int) *Checkpoint {
		c := sampleCheckpoint()
		c.Cycles = n
		c.SimNow = at.Add(time.Duration(n) * time.Hour)
		c.Snapshot = st.Snapshot(events)
		return c
	}
	enc := new(CheckpointEncoder)
	checkCut(t, "empty state", enc, cut(0))
	for i := 1; i <= 6; i++ {
		for k := 0; k < i; k++ {
			url := "http://s" + string(rune('a'+i)) + string(rune('a'+k)) + ".example/<&>"
			// Later records classify earlier, so sorting reorders them.
			st.AddRecord(&analysis.Record{
				Target:       &threat.Target{URL: url},
				ClassifiedAt: at.Add(-time.Duration(i*10+k) * time.Minute),
			})
			st.MarkSeen(url)
			events = append(events, eventAt(uint64(len(events)), url, at, map[string]string{"i": url}))
		}
		checkCut(t, "append", enc, cut(i))
		checkCut(t, "no new work", enc, cut(i))
	}
	if n := len(enc.records.recs); n != len(st.Records()) {
		t.Fatalf("cache holds %d records, want %d", n, len(st.Records()))
	}

	st.SortRecords()
	checkCut(t, "after SortRecords", enc, cut(7))

	snap := st.Snapshot(events)
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	st = New()
	st.Restore(&decoded)
	checkCut(t, "after Restore", enc, cut(8))
	st.AddRecord(&analysis.Record{Target: &threat.Target{URL: "http://late.example"}, ClassifiedAt: at})
	checkCut(t, "append after Restore", enc, cut(9))

	st.Restore(&Snapshot{Records: st.Records()[:2]})
	checkCut(t, "fewer records", enc, cut(10))

	events = slices.Clone(events)
	events[0].Attrs = map[string]string{"i": "edited"}
	checkCut(t, "edited event", enc, cut(11))
	events[1].Attrs = map[string]string{}
	checkCut(t, "empty attrs", enc, cut(12))
	events[1].Attrs = nil
	checkCut(t, "nil attrs", enc, cut(12))
	events = nil
	checkCut(t, "no journal", enc, cut(13))
}

// TestCheckpointEncoderError: a value encoding/json refuses fails the cut
// with the same error class as before, and the encoder recovers.
func TestCheckpointEncoderError(t *testing.T) {
	st := New()
	st.AddRecord(&analysis.Record{Target: &threat.Target{URL: "http://ok.example"}})
	enc := new(CheckpointEncoder)
	c := sampleCheckpoint()
	c.Snapshot = st.Snapshot(nil)
	checkCut(t, "before", enc, c)
	bad := &analysis.Record{Target: &threat.Target{URL: "http://nan.example"}, ClassifierScore: math.NaN()}
	st.AddRecord(bad)
	c.Snapshot = st.Snapshot(nil)
	if _, err := enc.Encode(c); err == nil || !strings.Contains(err.Error(), "state: encode checkpoint") {
		t.Fatalf("NaN score encoded (err=%v)", err)
	}
	if _, err := json.Marshal(c); err == nil {
		t.Fatal("reference accepted NaN")
	}
	bad.ClassifierScore = 0.5
	checkCut(t, "after error", enc, c)
}

// TestEnvelopeFieldsWritten lists the JSON field names the encoder writes
// by hand. A field added to any of these types fails here until the
// encoder (encode.go) writes it and this list names it.
func TestEnvelopeFieldsWritten(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Checkpoint{}), []string{"fingerprint", "sim_now", "cycles", "snapshot", "poller,omitempty", "limiter,omitempty", "faults,omitempty"}},
		{reflect.TypeOf(Snapshot{}), []string{"Stats", "Records", "Observations", "Seen", "Events"}},
		{reflect.TypeOf(checkpointFile{}), []string{"version", "kind,omitempty", "sha256", "payload"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			fld := tc.typ.Field(i)
			name := fld.Tag.Get("json")
			if name == "" {
				name = fld.Name
			}
			got = append(got, name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s JSON fields %q, the encoder writes %q", tc.typ, got, tc.want)
		}
	}
}

// benchCheckpoint is a checkpoint holding n records shaped like a
// study's: a hosted FWB target, six feed verdicts, five VT detections and
// a twenty-class page signature each (about 2.4 KB of JSON per record).
func benchCheckpoint(n int) *Checkpoint {
	svc := &fwb.Service{Name: "Weebly", Key: "weebly", Domain: "weebly.com", ComTLD: true}
	st := New()
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("https://site-%05d.weebly.com/", i)
		at := t0.Add(time.Duration(i) * time.Minute)
		r := rec(url, at)
		r.Target.Site = &fwb.Site{URL: url, Name: fmt.Sprintf("site-%05d", i), Service: svc, Brand: "paypal", Created: at}
		r.Target.Service, r.Target.Brand = svc, "paypal"
		r.Blocklist = make(map[string]blocklist.Verdict)
		for _, feed := range []string{"gsb", "smartscreen", "phishtank", "openphish", "ecrimex", "apwg"} {
			r.Blocklist[feed] = blocklist.Verdict{Detected: i%3 == 0, At: at.Add(time.Hour)}
		}
		for k := 0; k < 5; k++ {
			r.VTDetections = append(r.VTDetections, at.Add(time.Duration(k)*time.Hour))
		}
		r.Signature = make(analysis.Signature, 20)
		for k := range r.Signature {
			r.Signature[k] = fmt.Sprintf("class-%02d", k)
		}
		st.AddRecord(r)
		st.MarkSeen(url)
	}
	c := sampleCheckpoint()
	c.Snapshot = st.Snapshot(nil)
	return c
}

// BenchmarkCheckpointCut compares one cut of a 2,000-record study encoded
// three ways: marshalling the payload and then the envelope around it
// (the reference), EncodeCheckpoint (which writes the envelope around the
// marshalled payload instead), and a warm CheckpointEncoder with no
// record admitted since its previous cut — what every cut still pays.
// The allocation figures of the first two depend on whether
// encoding/json's pooled buffer survived the last collection; under
// GOGC=off they are equal.
//
//	go test ./internal/state -run '^$' -bench CheckpointCut -benchmem
func BenchmarkCheckpointCut(b *testing.B) {
	c := benchCheckpoint(2000)
	ref := func() ([]byte, error) {
		p, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(p)
		return json.Marshal(checkpointFile{Version: checkpointVersion, Kind: kindCheckpoint, SHA256: hex.EncodeToString(sum[:]), Payload: p})
	}
	var warm CheckpointEncoder
	for _, bc := range []struct {
		name string
		cut  func() ([]byte, error)
	}{
		{"reference", ref},
		{"one-shot", func() ([]byte, error) { return EncodeCheckpoint(c) }},
		{"incremental", func() ([]byte, error) { return warm.Encode(c) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			out, err := bc.cut()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.cut(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
