// Package shardrpc is the HTTP adapter for the shard-dispatch boundary:
// the coordinator side (Client, a shard.Runner that ships a Spec to a
// remote freephish-worker) and the worker side (Server, an http.Handler
// that runs the spec and streams results back).
//
// The wire protocol is a single POST whose response is a stream of
// newline-delimited JSON frames: zero or more checkpoint frames (the
// shard's periodic state.Checkpoint envelopes and their instants, sent as
// they are cut so the coordinator always holds an adoption point),
// terminated by exactly one snapshot frame (the final state.Snapshot in
// its self-verifying wire envelope) or one error frame. A connection that dies before a terminal
// frame is a transport failure — the client marks it retry.Transient and
// the coordinator fails over to another runner, adopting the last
// checkpoint it received.
package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"freephish/internal/retry"
	"freephish/internal/shard"
	"freephish/internal/state"
)

// frame is one line of the stream: a checkpoint, a snapshot or an error.
type frame struct {
	// Checkpoint is an encoded state.Checkpoint envelope cut mid-run, and
	// At its sim instant in RFC 3339; a missing At reads as the zero time.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	At         string `json:"at,omitempty"`
	// Snapshot is the final state.Snapshot in its wire envelope; it
	// terminates a successful stream.
	Snapshot []byte `json:"snapshot,omitempty"`
	// Error terminates a failed stream: the shard ran (or refused to run)
	// and this is why. Unlike a dropped connection this is a definitive
	// answer, so the client does not mark it transient.
	Error string `json:"error,omitempty"`
}

// maxSpecBytes caps a spec request body; a longer one is answered 413
// without running. A spec is small except for Resume, an encoded
// checkpoint that grows linearly with scale. With the journal and the
// default fault profile over the http backend, the last checkpoint
// measured 8.3, 11.0 and 19.0 MB at scales 0.01, 0.02 and 0.05, which
// extrapolates to about 275 MB at scale 1 and about 365 MB once
// base64-encoded into the spec's JSON.
const maxSpecBytes = 512 << 20

// Server runs shard specs on behalf of remote coordinators. Register it on
// a mux at the same path clients POST to (conventionally /run).
type Server struct {
	// Runner executes each decoded spec — core.SpecRunner in the
	// freephish-worker daemon.
	Runner shard.Runner
	// Logger, when set, records per-request dispatch and outcome lines.
	Logger *slog.Logger

	// OnCheckpointFrame, when set, is consulted after each checkpoint frame
	// is written; frame counts from 1 per request. Returning an error kills
	// the in-flight run and aborts the connection without a terminal frame
	// — a deterministic stand-in for a worker crash, used by the failover
	// tests. Nil in production.
	OnCheckpointFrame func(shardIndex, frameCount int) error

	// specLimit, when positive, replaces maxSpecBytes; tests lower it.
	specLimit int64
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// ServeHTTP implements the worker side of the protocol.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "shardrpc: POST only", http.StatusMethodNotAllowed)
		return
	}
	limit := int64(maxSpecBytes)
	if s.specLimit > 0 {
		limit = s.specLimit
	}
	var spec shard.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("shardrpc: bad spec: %v", err), code)
		return
	}
	log := s.logger().With("shard", spec.Shard, "shards", spec.Shards, "seed", spec.Seed)
	log.Info("shard dispatched", "resume", len(spec.Resume) > 0)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeFrame := func(f frame) error {
		if err := enc.Encode(f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// The run streams checkpoints through here; a write failure means the
	// coordinator is gone, so the run fails cleanly rather than computing a
	// result nobody will receive. killed distinguishes the test seam's
	// injected crash from a genuine run error.
	frames := 0
	killed := false
	onChk := func(data []byte, at time.Time) error {
		if err := writeFrame(frame{Checkpoint: data, At: at.Format(time.RFC3339Nano)}); err != nil {
			return fmt.Errorf("shardrpc: stream checkpoint: %w", err)
		}
		frames++
		if s.OnCheckpointFrame != nil {
			if err := s.OnCheckpointFrame(spec.Shard, frames); err != nil {
				killed = true
				return fmt.Errorf("shardrpc: checkpoint stream killed: %w", err)
			}
		}
		return nil
	}

	snap, err := s.Runner.Run(r.Context(), spec, onChk)
	if killed {
		// Simulated worker death: abort the connection mid-stream so the
		// client sees a transport failure, exactly like a real crash.
		log.Warn("shard killed by checkpoint-frame hook", "frames", frames)
		panic(http.ErrAbortHandler)
	}
	if err != nil {
		log.Warn("shard failed", "err", err)
		writeFrame(frame{Error: err.Error()})
		return
	}
	data, err := state.EncodeSnapshotWire(snap)
	if err != nil {
		log.Error("shard snapshot encode failed", "err", err)
		writeFrame(frame{Error: err.Error()})
		return
	}
	log.Info("shard done", "checkpoints", frames, "bytes", len(data))
	writeFrame(frame{Snapshot: data})
}

// Client is the coordinator-side shard.Runner that dispatches specs to one
// remote worker endpoint.
type Client struct {
	// Endpoint is the worker address — "host:port" or a full http:// URL.
	Endpoint string
	// HTTPClient carries the dispatch requests. NewClient provides one with
	// no overall timeout (shard runs are long-lived); tests may substitute
	// their own.
	HTTPClient *http.Client
}

// NewClient returns a runner for one worker endpoint.
func NewClient(endpoint string) *Client {
	return &Client{
		Endpoint: endpoint,
		HTTPClient: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:          4,
				IdleConnTimeout:       90 * time.Second,
				ResponseHeaderTimeout: 30 * time.Second,
			},
		},
	}
}

// Name implements shard.Runner: the endpoint identifies the runner in
// metrics and ops events.
func (c *Client) Name() string { return c.Endpoint }

// url normalizes the endpoint into the dispatch URL.
func (c *Client) url() string {
	ep := c.Endpoint
	if !strings.Contains(ep, "://") {
		ep = "http://" + ep
	}
	return strings.TrimRight(ep, "/") + "/run"
}

// Run implements shard.Runner over the wire. Transport-level failures —
// connection refused, non-200 status, a stream that drops before a
// terminal frame, a snapshot that fails integrity verification — come back
// wrapped with retry.Transient so the dispatcher's policy and per-endpoint
// breaker can fail the shard over; an explicit error frame comes back
// plain, because the worker definitively answered.
func (c *Client) Run(ctx context.Context, spec shard.Spec, onCheckpoint func(data []byte, at time.Time) error) (*state.Snapshot, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: encode spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(), bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shardrpc: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return nil, retry.Transient(fmt.Errorf("shardrpc: dispatch to %s: %w", c.Endpoint, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, retry.Transient(fmt.Errorf("shardrpc: worker %s: status %d: %s",
			c.Endpoint, resp.StatusCode, strings.TrimSpace(string(msg))))
	}

	dec := json.NewDecoder(resp.Body)
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			// io.EOF included: the stream ended without a terminal frame,
			// i.e. the worker died mid-run.
			return nil, retry.Transient(fmt.Errorf("shardrpc: worker %s: stream ended without result: %w", c.Endpoint, err))
		}
		switch {
		case f.Error != "":
			return nil, fmt.Errorf("shardrpc: worker %s: %s", c.Endpoint, f.Error)
		case len(f.Snapshot) > 0:
			snap, err := state.DecodeSnapshotWire(f.Snapshot)
			if err != nil {
				return nil, retry.Transient(fmt.Errorf("shardrpc: worker %s: %w", c.Endpoint, err))
			}
			return snap, nil
		case len(f.Checkpoint) > 0:
			if onCheckpoint != nil {
				at, _ := time.Parse(time.RFC3339Nano, f.At)
				if err := onCheckpoint(f.Checkpoint, at); err != nil {
					return nil, err
				}
			}
		default:
			return nil, retry.Transient(fmt.Errorf("shardrpc: worker %s: empty frame", c.Endpoint))
		}
	}
}
