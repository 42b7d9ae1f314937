package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"freephish/internal/state"
)

// bodyTransport answers every request with 200 and a fixed ndjson body,
// without a socket.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// expectedFrames reads body the way the protocol defines it: the
// checkpoint payloads of the frames before the terminal one, and the
// terminal snapshot's envelope (nil if the stream ends without one, or
// ends in an error or malformed frame).
func expectedFrames(body []byte) (checkpoints [][]byte, snapshot []byte) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var f frame
		if dec.Decode(&f) != nil || f.Error != "" {
			return checkpoints, nil
		}
		switch {
		case len(f.Snapshot) > 0:
			return checkpoints, f.Snapshot
		case len(f.Checkpoint) > 0:
			checkpoints = append(checkpoints, f.Checkpoint)
		default:
			return checkpoints, nil
		}
	}
}

// FuzzClientFrames serves fuzzed response bodies to Client.Run. Whatever
// a broken or hostile worker streams, the run must return either a
// snapshot that passed the wire envelope's verification or an error —
// never both, never neither, no panic, no hang — and onCheckpoint must see
// exactly the stream's checkpoint frames, in order, and nothing else.
func FuzzClientFrames(f *testing.F) {
	chk, err := state.EncodeCheckpoint(&state.Checkpoint{Fingerprint: "v2 {}", Snapshot: &state.Snapshot{}})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := state.EncodeSnapshotWire(&state.Snapshot{Stats: state.Stats{Polls: 3}, Seen: []string{"http://a.example"}})
	if err != nil {
		f.Fatal(err)
	}
	line := func(fr frame) []byte {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(cat(line(frame{Checkpoint: chk}), line(frame{Checkpoint: chk}), line(frame{Snapshot: snap})))
	f.Add(cat(line(frame{Checkpoint: chk}), line(frame{Snapshot: snap})[:len(snap)/2]))
	f.Add(cat(line(frame{Checkpoint: chk}), line(frame{Error: "spec refused"})))
	f.Add(cat(line(frame{Checkpoint: chk, Snapshot: snap})))
	f.Add(cat(line(frame{Checkpoint: snap}), line(frame{Snapshot: chk})))
	f.Add(cat(line(frame{Snapshot: snap}), line(frame{Checkpoint: chk})))
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"checkpoint":"not base64"}`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		client := &Client{Endpoint: "fuzz", HTTPClient: &http.Client{Transport: bodyTransport(body)}}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var seen [][]byte
		got, err := client.Run(ctx, testSpec(), func(data []byte) error {
			seen = append(seen, data)
			return nil
		})
		if (got == nil) == (err == nil) {
			t.Fatalf("Run = (%v, %v), want exactly one of a snapshot and an error", got, err)
		}
		wantChk, wantSnap := expectedFrames(body)
		if len(seen) != len(wantChk) {
			t.Fatalf("onCheckpoint saw %d frames, the stream has %d checkpoint frames", len(seen), len(wantChk))
		}
		for i := range seen {
			if !bytes.Equal(seen[i], wantChk[i]) {
				t.Fatalf("onCheckpoint frame %d is %q, want %q", i, seen[i], wantChk[i])
			}
		}
		if got == nil {
			return
		}
		want, err := state.DecodeSnapshotWire(wantSnap)
		if err != nil {
			t.Fatalf("Run returned a snapshot whose envelope does not verify: %v", err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("Run returned %s, the terminal frame holds %s", a, b)
		}
	})
}
