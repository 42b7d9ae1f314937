package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"freephish/internal/retry"
	"freephish/internal/shard"
	"freephish/internal/state"
)

// fakeRunner streams a fixed list of checkpoints, then returns snap or err.
type fakeRunner struct {
	checkpoints []string
	snap        *state.Snapshot
	err         error
}

func (r *fakeRunner) Name() string { return "fake" }

func (r *fakeRunner) Run(ctx context.Context, spec shard.Spec, onCheckpoint func([]byte) error) (*state.Snapshot, error) {
	for _, c := range r.checkpoints {
		if err := onCheckpoint([]byte(c)); err != nil {
			return nil, err
		}
	}
	return r.snap, r.err
}

// serve starts a worker for h and returns a client dispatching to it.
func serve(t *testing.T, h http.Handler) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func testSpec() shard.Spec {
	return shard.Spec{ShardSpec: state.ShardSpec{Seed: 1, Shard: 1, Shards: 2}}
}

func TestCheckpointFramesPrecedeSnapshot(t *testing.T) {
	runner := &fakeRunner{
		checkpoints: []string{"c1", "c2", "c3"},
		snap:        &state.Snapshot{Stats: state.Stats{Polls: 7}},
	}
	client := serve(t, &Server{Runner: runner})
	var got []string
	snap, err := client.Run(context.Background(), testSpec(), func(data []byte) error {
		got = append(got, string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "c1,c2,c3" {
		t.Fatalf("checkpoints delivered as %q before the snapshot, want c1,c2,c3 in order", got)
	}
	if snap.Stats.Polls != 7 {
		t.Fatalf("snapshot Stats.Polls = %d, want 7", snap.Stats.Polls)
	}
}

func TestErrorFrameIsNotTransient(t *testing.T) {
	client := serve(t, &Server{Runner: &fakeRunner{checkpoints: []string{"c1"}, err: errors.New("spec refused")}})
	_, err := client.Run(context.Background(), testSpec(), func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "spec refused") {
		t.Fatalf("Run = %v, want the worker's error", err)
	}
	if retry.IsTransient(err) {
		t.Fatalf("error frame came back transient: %v", err)
	}
}

// TestTransportFailuresAreTransient covers every way the wire can fail
// without the worker answering: each must be retry.Transient so the
// coordinator fails the shard over.
func TestTransportFailuresAreTransient(t *testing.T) {
	wire, err := state.EncodeSnapshotWire(&state.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		h    http.Handler
		want string
	}{
		{"stream cut before the terminal frame", &Server{
			Runner: &fakeRunner{checkpoints: []string{"c1", "c2"}, snap: &state.Snapshot{}},
			OnCheckpointFrame: func(shardIndex, frames int) error {
				return errors.New("worker crash")
			},
		}, "stream ended without result"},
		{"non-200 status", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		}), "status 503"},
		{"corrupted snapshot envelope", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(frame{Snapshot: wire[:len(wire)/2]})
		}), "snapshot wire"},
	}
	for _, tc := range cases {
		client := serve(t, tc.h)
		_, err := client.Run(context.Background(), testSpec(), func([]byte) error { return nil })
		if err == nil || !retry.IsTransient(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want a transient error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckpointCallbackErrorFailsRun(t *testing.T) {
	runner := &fakeRunner{checkpoints: []string{"c1", "c2"}, snap: &state.Snapshot{}}
	client := serve(t, &Server{Runner: runner})
	lost := errors.New("coordinator lost the checkpoint")
	_, err := client.Run(context.Background(), testSpec(), func([]byte) error { return lost })
	if !errors.Is(err, lost) {
		t.Fatalf("Run = %v, want the checkpoint callback's error", err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := &Server{Runner: &fakeRunner{snap: &state.Snapshot{}}}
	for _, tc := range []struct {
		method, body string
		want         int
	}{
		{http.MethodPost, "{not a spec", http.StatusBadRequest},
		{http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, "/run", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s %q: status %d, want %d", tc.method, tc.body, rec.Code, tc.want)
		}
	}
}

// TestServerRejectsOversizedSpec: a spec body over the cap is answered 413
// without running, which the client reports as a transient failure so
// the coordinator places the shard elsewhere; a spec under the cap runs.
func TestServerRejectsOversizedSpec(t *testing.T) {
	runner := &countingRunner{fakeRunner: fakeRunner{snap: &state.Snapshot{}}}
	srv := &Server{Runner: runner, specLimit: 4 << 10}
	big := testSpec()
	big.Resume = make([]byte, 4<<10)
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(string(body))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", rec.Code)
	}

	client := serve(t, srv)
	_, err = client.Run(context.Background(), big, func([]byte) error { return nil })
	if err == nil || !retry.IsTransient(err) || !strings.Contains(err.Error(), "status 413") {
		t.Fatalf("Run(oversized spec) = %v, want a transient 413", err)
	}
	if n := runner.runs.Load(); n != 0 {
		t.Fatalf("oversized spec ran %d times", n)
	}
	small := testSpec()
	small.Resume = make([]byte, 1<<10)
	if _, err := client.Run(context.Background(), small, func([]byte) error { return nil }); err != nil {
		t.Fatalf("Run(spec under the cap) = %v", err)
	}
	if n := runner.runs.Load(); n != 1 {
		t.Fatalf("spec under the cap ran %d times, want 1", n)
	}
}

// countingRunner is a fakeRunner that counts its runs.
type countingRunner struct {
	fakeRunner
	runs atomic.Int64
}

func (r *countingRunner) Run(ctx context.Context, spec shard.Spec, onCheckpoint func([]byte) error) (*state.Snapshot, error) {
	r.runs.Add(1)
	return r.fakeRunner.Run(ctx, spec, onCheckpoint)
}
