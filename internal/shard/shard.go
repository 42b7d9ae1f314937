// Package shard defines the shard-dispatch boundary: the port through which
// the study coordinator hands one shard of the posting schedule to
// *something that can run it* — an in-process child framework or a remote
// freephish-worker — and gets back the shard's final state.Snapshot plus a
// stream of periodic checkpoints it can adopt if the runner dies.
//
// The port mirrors the world boundary from internal/world: internal/core
// owns the coordinator and the local adapter, internal/shardrpc owns the
// HTTP adapter, and both must be byte-identical — a shard's output depends
// only on its Spec, never on where it ran.
package shard

import (
	"context"

	"freephish/internal/state"
)

// Spec is one dispatchable unit of work: the serializable study
// configuration plus this shard's position in it, and optionally an encoded
// state.Checkpoint to resume from instead of starting at the epoch —
// failover by checkpoint adoption hands a dead runner's last streamed
// checkpoint to its replacement through this field.
type Spec struct {
	state.ShardSpec
	// Resume, when non-empty, is an encoded checkpoint (the
	// state.EncodeCheckpoint envelope) the runner must resume from via the
	// replay path rather than running the shard from ordinal zero.
	Resume []byte `json:"resume,omitempty"`
}

// Runner executes one shard to completion.
//
// onCheckpoint is invoked with each encoded checkpoint the running shard
// cuts at its ordered-apply boundaries, in order, before the final snapshot
// is returned; the coordinator keeps the last one as the adoption point.
// Each data slice is handed over to the callee: the runner passes a fresh
// slice per checkpoint and never touches it again, so the callee may keep
// it without copying. If
// onCheckpoint returns an error the run must fail — a coordinator that can
// no longer receive checkpoints has lost its failover guarantee for this
// attempt, so the runner surfaces that instead of running on silently.
// onCheckpoint may be nil when the dispatcher wants no stream.
//
// Run returns the shard's final snapshot (including its journal events) on
// success. Errors wrapped with retry.Transient mark transport-level
// failures the dispatcher may fail over; a plain error means the spec
// itself is unrunnable everywhere (fingerprint mismatch, invalid resume
// data) and retrying elsewhere would only repeat it.
type Runner interface {
	// Name identifies the runner for metrics, ops events, and the /dash
	// shard panel — "local" for the in-process adapter, the endpoint for a
	// remote worker.
	Name() string
	Run(ctx context.Context, spec Spec, onCheckpoint func(data []byte) error) (*state.Snapshot, error)
}
