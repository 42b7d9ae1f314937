package state

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/threat"
)

// Pinned encodings of records' page signatures. The files under testdata
// were written by the map-to-true signature this package first
// checkpointed, so they hold the bytes that checkpoints already on disk
// and shard snapshot frames in flight carry. They are never regenerated.

// validAwkward is awkward without its invalid UTF-8, which decoding turns
// into U+FFFD; every other escape survives a decode and re-encode.
const validAwkward = "a<b>&c\u2028d\u2029e\"\\\n"

// setSignature sets r.Signature to the set of keys through reflection, so
// the same test builds it in any representation of that set: a map of
// keys to true, or a sorted slice of the keys. A nil keys leaves it nil;
// an empty one makes it empty and non-nil.
func setSignature(r *analysis.Record, keys []string) {
	if keys == nil {
		return
	}
	v := reflect.ValueOf(r).Elem().FieldByName("Signature")
	switch v.Kind() {
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for _, k := range keys {
			m.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(true))
		}
		v.Set(m)
	case reflect.Slice:
		s := append(make([]string, 0, len(keys)), keys...)
		sort.Strings(s)
		v.Set(reflect.ValueOf(s).Convert(v.Type()))
	default:
		panic("state: unexpected signature kind " + v.Kind().String())
	}
}

// pinnedCheckpoint holds three records: one with a nil signature, one with
// the empty non-nil signature of a URL-only admission, and one whose
// signature keys need escaping (odd is awkward or validAwkward).
func pinnedCheckpoint(odd string) *Checkpoint {
	at := time.Date(2022, 11, 15, 6, 0, 0, 0, time.UTC)
	keys := [][]string{nil, {}, {"<div>", odd}}
	urls := []string{"http://nil.example", "http://empty.example", "http://x.example/" + odd}
	snap := &Snapshot{Stats: Stats{Polls: 3}}
	for i, u := range urls {
		r := &analysis.Record{Target: &threat.Target{URL: u}, Classified: true, ClassifiedAt: at.Add(time.Duration(i) * time.Minute)}
		setSignature(r, keys[i])
		snap.Records = append(snap.Records, r)
	}
	return &Checkpoint{Fingerprint: "pinned", SimNow: at, Cycles: 3, Snapshot: snap}
}

func readPinned(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPinnedSignatureBytes checks that checkpoints and snapshot frames of
// records still encode to the pinned bytes, through every encoder.
func TestPinnedSignatureBytes(t *testing.T) {
	for _, tc := range []struct{ odd, file string }{
		{awkward, "signature_awkward"},
		{validAwkward, "signature_valid"},
	} {
		c := pinnedCheckpoint(tc.odd)
		want := readPinned(t, tc.file+".checkpoint")
		got, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeCheckpoint moved off the pinned bytes: %s", tc.file, firstDiff(got, want))
		}
		if got, err = new(CheckpointEncoder).Encode(c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: CheckpointEncoder moved off the pinned bytes: %s", tc.file, firstDiff(got, want))
		}
		want = readPinned(t, tc.file+".wire")
		if got, err = EncodeSnapshotWire(c.Snapshot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeSnapshotWire moved off the pinned bytes: %s", tc.file, firstDiff(got, want))
		}
	}
}

// TestPinnedSignatureRoundTrip decodes the pinned bytes and re-encodes
// them: the bytes come back unchanged, and the signatures keep their nil,
// empty and filled states.
func TestPinnedSignatureRoundTrip(t *testing.T) {
	want := readPinned(t, "signature_valid.checkpoint")
	c, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EncodeCheckpoint(c); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint re-encoded differently: %s", firstDiff(got, want))
	}
	if !reflect.DeepEqual(c.Snapshot.Records, pinnedCheckpoint(validAwkward).Snapshot.Records) {
		t.Fatal("decoded records differ from the ones that were encoded")
	}
	want = readPinned(t, "signature_valid.wire")
	s, err := DecodeSnapshotWire(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EncodeSnapshotWire(s); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		t.Fatalf("snapshot frame re-encoded differently: %s", firstDiff(got, want))
	}
}
