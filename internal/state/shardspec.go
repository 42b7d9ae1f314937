package state

import (
	"encoding/json"
	"fmt"
	"time"

	"freephish/internal/faults"
)

// ShardSpec is the serializable dispatch unit of the shard-dispatch
// boundary: everything a runner — a fresh local child or a remote
// freephish-worker — needs to rebuild one shard's complete framework and
// produce byte-identical output. It carries the determinism-relevant
// configuration (seed, window, populations, cadences, cascade and chaos
// settings), the shard's position in the partition, and the coordinator's
// expected config fingerprint so a drifted worker build or a mangled spec
// fails loudly instead of silently computing a different study.
//
// Deliberately included despite being fingerprint-irrelevant: Backend,
// Workers, and QueueDepth, so a remote worker runs the same deployment
// shape the operator asked for (the study is byte-identical across all of
// them — the worker may override Workers for its own hardware). A spec
// that still carries a retired field, such as the former
// snapshot_cache_size or journal_ring, decodes: unknown keys are ignored.
type ShardSpec struct {
	Seed     int64         `json:"seed"`
	Epoch    time.Time     `json:"epoch"`
	Duration time.Duration `json:"duration"`

	FWBTwitter     int     `json:"fwb_twitter"`
	FWBFacebook    int     `json:"fwb_facebook"`
	SelfTwitter    int     `json:"self_twitter"`
	SelfFacebook   int     `json:"self_facebook"`
	BenignPerPhish float64 `json:"benign_per_phish"`
	Scale          float64 `json:"scale"`

	PollInterval    time.Duration `json:"poll_interval"`
	TrainPerClass   int           `json:"train_per_class"`
	GrowthExponent  float64       `json:"growth_exponent"`
	MonitorInterval time.Duration `json:"monitor_interval,omitempty"`
	ReshareRate     float64       `json:"reshare_rate,omitempty"`
	PollQuota       int           `json:"poll_quota,omitempty"`
	PollQuotaRate   float64       `json:"poll_quota_rate,omitempty"`

	Workers    int    `json:"workers,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	Backend    string `json:"backend,omitempty"`

	// Faults is the chaos profile, nil when chaos is off. It serializes by
	// value: every probability and window the injector keys its decisions
	// from, so a remote shard draws the identical fault schedule.
	Faults *faults.Profile `json:"faults,omitempty"`

	Journal bool `json:"journal,omitempty"`

	// CascadeOn carries Config.Cascade != nil; the thresholds ride along so
	// the runner rebuilds the identical triage tier.
	CascadeOn          bool    `json:"cascade_on,omitempty"`
	CascadeBenignBelow float64 `json:"cascade_benign_below,omitempty"`
	CascadePhishAbove  float64 `json:"cascade_phish_above,omitempty"`

	// Shard / Shards position this spec in the posting-schedule partition
	// (residue class Shard of Shards).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	// CheckpointEvery is the poll-cycle stride between the checkpoints the
	// runner streams back to the coordinator — the failover-by-adoption
	// cadence, not an operator file.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// Fingerprint is the coordinator's expected determinism fingerprint for
	// this shard, derived from this spec itself (core's specFingerprint). A
	// runner whose rebuilt configuration fingerprints differently must
	// refuse the spec.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Snapshot wire encoding: the worker RPC ships the final *Snapshot back to
// the coordinator in the same self-verifying envelope checkpoints use — a
// version, a SHA-256 of the payload, and a kind tag so a snapshot blob can
// never be confused for a checkpoint (or vice versa) after a transport
// truncates or corrupts the stream.

// snapshotWireVersion is the wire format version for encoded snapshots.
const snapshotWireVersion = 1

const (
	kindCheckpoint = "checkpoint"
	kindSnapshot   = "snapshot"
)

// EncodeSnapshotWire serializes a snapshot into its self-verifying wire
// format.
func EncodeSnapshotWire(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("state: encode snapshot: %w", err)
	}
	return envelope(kindSnapshot, snapshotWireVersion, payload), nil
}

// DecodeSnapshotWire parses and verifies a wire-encoded snapshot. It
// rejects truncated or corrupted data, unknown format versions, and
// envelopes of a different kind (a checkpoint is not a snapshot) with
// errors that say so.
func DecodeSnapshotWire(data []byte) (*Snapshot, error) {
	payload, err := snapshotEnvelope.open(data)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("state: decode snapshot wire payload: %w", err)
	}
	return &s, nil
}

// PeekCheckpointInstant reads the sim instant out of an encoded checkpoint
// without verifying the payload or decoding more of it than sim_now. The
// coordinator calls it per streamed checkpoint to timestamp ops events
// and the /dash shard panel; the full DecodeCheckpoint still runs (and
// verifies) before any adoption. It decodes with encoding/json and checks
// the head as DecodeCheckpoint does, so wherever DecodeCheckpoint accepts
// the bytes the peek returns the same instant.
func PeekCheckpointInstant(data []byte) (time.Time, error) {
	var f envelopeOf[*peekPayload]
	if err := json.Unmarshal(data, &f); err != nil {
		return time.Time{}, fmt.Errorf("state: peek checkpoint: %w", err)
	}
	if err := checkpointEnvelope.check(f.Kind, f.Version); err != nil {
		return time.Time{}, err
	}
	if f.Payload == nil {
		return time.Time{}, fmt.Errorf("state: peek checkpoint: envelope has no payload")
	}
	return f.Payload.SimNow, nil
}

// peekPayload is the part of a checkpoint payload the peek reads.
type peekPayload struct {
	SimNow time.Time
}

// UnmarshalJSON decodes each payload afresh. Unmarshal reuses a struct
// it decodes into, so without this a repeated "payload" key lacking
// sim_now would keep the first one's instant, where DecodeCheckpoint,
// which decodes only the last payload, reads the zero instant.
func (p *peekPayload) UnmarshalJSON(b []byte) error {
	var v struct {
		SimNow time.Time `json:"sim_now"`
	}
	err := json.Unmarshal(b, &v)
	p.SimNow = v.SimNow
	return err
}
