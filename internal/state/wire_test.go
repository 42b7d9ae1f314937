package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// Tests for the self-verifying snapshot wire envelope (the terminal frame
// of a shardrpc response) and for the kind tag that keeps checkpoint and
// snapshot blobs from masquerading as each other after a transport
// mangles a stream.

func sampleWireSnapshot() *Snapshot {
	return buildShard([]string{"http://a.weebly.com", "http://b.wixsite.com"}, 6).Snapshot(nil)
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	want := sampleWireSnapshot()
	data, err := EncodeSnapshotWire(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotWire(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip diverged:\n%s\n%s", a, b)
	}
}

func TestSnapshotWireRejectsCorruption(t *testing.T) {
	data, err := EncodeSnapshotWire(sampleWireSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("a.weebly.com"))
	if i < 0 {
		t.Fatal("payload marker not found")
	}
	bad := append([]byte(nil), data...)
	bad[i] = 'z'
	if _, err := DecodeSnapshotWire(bad); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corrupted snapshot accepted (err=%v)", err)
	}
}

func TestSnapshotWireRejectsTruncation(t *testing.T) {
	data, err := EncodeSnapshotWire(sampleWireSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotWire(data[:len(data)/2]); err == nil || !strings.Contains(err.Error(), "not a valid envelope") {
		t.Fatalf("truncated snapshot accepted (err=%v)", err)
	}
	if _, err := DecodeSnapshotWire(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}

func TestSnapshotWireRejectsVersionMismatch(t *testing.T) {
	data, err := EncodeSnapshotWire(sampleWireSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Version = 99
	bad, _ := json.Marshal(f)
	if _, err := DecodeSnapshotWire(bad); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future-version snapshot accepted (err=%v)", err)
	}
}

// TestWireKindConfusion: a checkpoint envelope is not a snapshot and a
// snapshot envelope is not a checkpoint, even though both are valid JSON
// with a correct hash — the kind tag is what catches a stream whose
// frames were mixed up.
func TestWireKindConfusion(t *testing.T) {
	chk, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotWire(chk); err == nil || !strings.Contains(err.Error(), `kind "checkpoint"`) {
		t.Fatalf("checkpoint accepted as snapshot (err=%v)", err)
	}
	snap, err := EncodeSnapshotWire(sampleWireSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(snap); err == nil || !strings.Contains(err.Error(), `kind "snapshot"`) {
		t.Fatalf("snapshot accepted as checkpoint (err=%v)", err)
	}
}

// TestCheckpointKindBackwardCompatible: checkpoint files written before
// the kind tag existed carry an empty kind and must still decode — an
// operator's on-disk checkpoint survives the upgrade.
func TestCheckpointKindBackwardCompatible(t *testing.T) {
	data, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Kind = ""
	old, _ := json.Marshal(f)
	if _, err := DecodeCheckpoint(old); err != nil {
		t.Fatalf("pre-kind checkpoint rejected: %v", err)
	}
}

// handEnvelope wraps payload in an envelope whose head is written by
// hand: fields lists the members before the payload and after lists any
// that follow it. The hash is the payload's, so DecodeCheckpoint judges
// the head alone.
func handEnvelope(fields, payload, after string) []byte {
	sum := sha256.Sum256([]byte(payload))
	return []byte(`{` + fields + `"sha256":"` + hex.EncodeToString(sum[:]) + `","payload":` + payload + after + `}`)
}

// Fuzz harnesses: whatever a broken transport delivers, the decoders must
// return an error or a structurally valid value — never panic, and never
// accept a blob whose recorded hash disagrees with its payload.

func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"kind":"checkpoint","sha256":"00","payload":{}}`))
	f.Add(handEnvelope(`"version":2,"version":1,`, `{"sim_now":"2022-01-01T00:00:00Z","snapshot":{}}`, `,"kind":"checkpoint"`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		chk, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if chk.Snapshot == nil {
			t.Fatal("decoded checkpoint has no snapshot; DecodeCheckpoint must reject it")
		}
		if _, err := EncodeCheckpoint(chk); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
	})
}

func FuzzDecodeSnapshotWire(f *testing.F) {
	valid, err := EncodeSnapshotWire(sampleWireSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	chk, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(chk)
	f.Add([]byte("null"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshotWire(data)
		if err != nil {
			return
		}
		if _, err := EncodeSnapshotWire(snap); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
