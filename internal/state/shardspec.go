package state

import (
	"crypto/sha256"
	"encoding/hex"
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
// Workers, QueueDepth, and SnapshotCacheSize, so a remote worker runs the
// same deployment shape the operator asked for (the study is byte-identical
// across all of them — the worker may override Workers for its own
// hardware).
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

	Workers           int    `json:"workers,omitempty"`
	QueueDepth        int    `json:"queue_depth,omitempty"`
	SnapshotCacheSize int    `json:"snapshot_cache_size,omitempty"`
	Backend           string `json:"backend,omitempty"`

	// Faults is the chaos profile, nil when chaos is off. It serializes by
	// value: every probability and window the injector keys its decisions
	// from, so a remote shard draws the identical fault schedule.
	Faults *faults.Profile `json:"faults,omitempty"`

	Journal     bool `json:"journal,omitempty"`
	JournalRing int  `json:"journal_ring,omitempty"`

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
	sum := sha256.Sum256(payload)
	return json.Marshal(checkpointFile{
		Version: snapshotWireVersion,
		Kind:    kindSnapshot,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
}

// DecodeSnapshotWire parses and verifies a wire-encoded snapshot. It
// rejects truncated or corrupted data, unknown format versions, and
// envelopes of a different kind (a checkpoint is not a snapshot) with
// errors that say so.
func DecodeSnapshotWire(data []byte) (*Snapshot, error) {
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("state: snapshot wire data is not a valid envelope (truncated or not JSON): %w", err)
	}
	if f.Kind != kindSnapshot {
		return nil, fmt.Errorf("state: snapshot wire envelope has kind %q, want %q", f.Kind, kindSnapshot)
	}
	if f.Version != snapshotWireVersion {
		return nil, fmt.Errorf("state: snapshot wire format version %d, want %d", f.Version, snapshotWireVersion)
	}
	sum := sha256.Sum256(f.Payload)
	if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
		return nil, fmt.Errorf("state: snapshot wire payload corrupted: sha256 %s, recorded %s", got, f.SHA256)
	}
	var s Snapshot
	if err := json.Unmarshal(f.Payload, &s); err != nil {
		return nil, fmt.Errorf("state: decode snapshot wire payload: %w", err)
	}
	return &s, nil
}

// PeekCheckpointInstant reads the sim instant out of an encoded checkpoint
// without paying for full payload verification — the coordinator calls it
// per streamed checkpoint to timestamp ops events and the /dash shard
// panel. The full DecodeCheckpoint still runs (and verifies) before any
// adoption.
func PeekCheckpointInstant(data []byte) (time.Time, error) {
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return time.Time{}, fmt.Errorf("state: peek checkpoint: %w", err)
	}
	var head struct {
		SimNow time.Time `json:"sim_now"`
	}
	if err := json.Unmarshal(f.Payload, &head); err != nil {
		return time.Time{}, fmt.Errorf("state: peek checkpoint payload: %w", err)
	}
	return head.SimNow, nil
}
