package state

import (
	"encoding/json"
	"fmt"
	"time"

	"freephish/internal/faults"
)

// ShardSpec is the one declaration of the study knobs, and the
// serializable dispatch unit of the shard-dispatch boundary: everything a
// runner — a fresh local child or a remote freephish-worker — needs to
// rebuild one shard's complete framework and produce byte-identical
// output. core.Config embeds it and adds only deployment hooks, so a knob
// declared here travels to every shard by construction. It carries the
// determinism-relevant configuration (seed, window, populations,
// cadences, cascade and chaos settings), the shard's position in the
// partition, and the coordinator's expected config fingerprint so a
// drifted worker build or a mangled spec fails loudly instead of silently
// computing a different study. The defaults (core.DefaultConfig)
// reproduce the paper's six-month run; Scale shrinks every population
// proportionally for fast experimentation.
//
// Deliberately included despite being fingerprint-irrelevant: Backend,
// Workers, and QueueDepth, so a remote worker runs the same deployment
// shape the operator asked for (the study is byte-identical across all of
// them — the worker may override Workers for its own hardware). A spec
// that still carries a retired field, such as the former
// snapshot_cache_size or journal_ring, decodes: unknown keys are ignored.
type ShardSpec struct {
	Seed  int64     `json:"seed"`
	Epoch time.Time `json:"epoch"`
	// Duration of the measurement window (paper: six months).
	Duration time.Duration `json:"duration"`

	// Population sizes at Scale 1.0 (paper: 19,724 + 11,681 FWB URLs and a
	// matched self-hosted sample with the same platform split).
	FWBTwitter   int `json:"fwb_twitter"`
	FWBFacebook  int `json:"fwb_facebook"`
	SelfTwitter  int `json:"self_twitter"`
	SelfFacebook int `json:"self_facebook"`
	// BenignPerPhish is the ratio of benign FWB posts mixed into the
	// stream — the noise the classifier must reject in the wild.
	BenignPerPhish float64 `json:"benign_per_phish"`
	// Scale in (0, 1] multiplies every population.
	Scale float64 `json:"scale"`

	// PollInterval is the streaming module's cadence (paper: 10 minutes).
	PollInterval time.Duration `json:"poll_interval"`
	// TrainPerClass is the ground-truth corpus size per class (paper:
	// 4,656 manually verified per class).
	TrainPerClass int `json:"train_per_class"`
	// GrowthExponent >1 makes the posting rate rise over the window,
	// matching the upward trend of Figure 1.
	GrowthExponent float64 `json:"growth_exponent"`
	// MonitorInterval, when non-zero, enables the §4.4 active monitor:
	// every flagged URL is re-probed over HTTP and checked against the
	// blocklist lookup APIs at this cadence for a week. The paper uses 10
	// minutes; 6h keeps full-scale runs tractable.
	MonitorInterval time.Duration `json:"monitor_interval,omitempty"`
	// ReshareRate is the expected number of additional posts re-sharing
	// each phishing URL (retweets/cross-posts). The analysis keys on a
	// URL's FIRST appearance, so reshares exercise the dedup path without
	// inflating the record set.
	ReshareRate float64 `json:"reshare_rate,omitempty"`
	// PollQuota, when > 0, installs an API rate limiter on the poller:
	// a bucket of PollQuota requests refilled at PollQuotaRate per
	// second of simulated time. Zero disables limiting (the default).
	PollQuota     int     `json:"poll_quota,omitempty"`
	PollQuotaRate float64 `json:"poll_quota_rate,omitempty"`

	// Workers bounds the pipeline's probe pool (snapshot + feature
	// extraction + inference run concurrently across a cycle's fresh URLs)
	// and the trainers' parallelism; 0 means runtime.GOMAXPROCS(0). Every
	// study output is bit-identical at every setting: probes are pure, and
	// all stateful effects — stats, RNG draws, reporting, record admission
	// — are applied single-threaded in stream order.
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds the streaming pipeline's per-stage queues and the
	// reorder window (see internal/pipe): memory per cycle is O(Workers +
	// QueueDepth), never O(cycle size), and a stalled fetch backpressures
	// the stream instead of buffering it. 0 means pipe.DefaultDepth. Like
	// Workers, the study is bit-identical at every setting.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Backend selects how the pipeline reaches the world: core.BackendInproc
	// (the default, also spelled ""; handler dispatch, zero sockets) or
	// core.BackendHTTP (real loopback servers for the web, the platform
	// APIs, the blocklist feeds, and the SimAPI). The study is
	// bit-identical either way.
	Backend string `json:"backend,omitempty"`

	// Faults, when non-nil, injects seeded chaos — latency, 5xx bursts,
	// connection resets, corrupted bodies, endpoint blackouts — into every
	// world boundary. The unified retry layer absorbs the default profile
	// completely: the study stays byte-identical to a fault-free run. It
	// serializes by value: every probability and window the injector keys
	// its decisions from, so a remote shard draws the identical fault
	// schedule.
	Faults *faults.Profile `json:"faults,omitempty"`

	// Journal enables per-URL lifecycle tracing: every URL's transitions
	// (posted → observed-in-CT → polled → fetched → classified → reported
	// → takedown/re-check) are recorded in the run's journal, with the
	// canonical sequence byte-identical across Workers × QueueDepth ×
	// Backend × chaos — the same invariant as the study itself. Off (the
	// default), the hot path pays only nil checks. Lifecycle events are
	// retained in full; the ops/tail ring holds obs.DefaultJournalRing.
	Journal bool `json:"journal,omitempty"`

	// CascadeOn enables the tiered classification cascade: a fetch-free
	// URL-lexical triage stage runs ahead of fetch. Lexical scores
	// strictly below CascadeBenignBelow short-circuit as benign and scores
	// strictly above CascadePhishAbove as phishing — those URLs are never
	// snapshotted; the uncertain band falls through to the full fetch →
	// classify path. baselines.ParseCascadeThresholds reads a -cascade
	// flag into the three fields. The degenerate pair (0, 1) never fires,
	// reproducing the cascade-off study exactly, and like every other
	// scaling knob the study stays byte-identical across Workers ×
	// QueueDepth × Backend × chaos for any fixed threshold pair.
	CascadeOn          bool    `json:"cascade_on,omitempty"`
	CascadeBenignBelow float64 `json:"cascade_benign_below,omitempty"`
	CascadePhishAbove  float64 `json:"cascade_phish_above,omitempty"`

	// Shard / Shards position this spec in the posting-schedule partition
	// (residue class Shard of Shards). In a core.Config, Shards > 1 splits
	// the study across N independent sub-streams: the posting schedule is
	// partitioned by global event ordinal, each shard runs its own full
	// pipeline (clock, world, servers, pipe graphs) over its residue
	// class, and the coordinator merges the shard snapshots into records,
	// observations, stats, and a canonical journal byte-identical to the
	// 1-shard run; 0 and 1 mean an ordinary single-process study. Run
	// ignores a Config's Shard: the coordinator sets each dispatched
	// spec's position, and an unsharded run fingerprints as shard 0 of 0.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	// CheckpointEvery is the poll-cycle stride between checkpoints. In a
	// spec it is the stride of the checkpoints the runner streams back to
	// the coordinator — the failover-by-adoption cadence. In a core.Config
	// it is the stride of the operator checkpoint file (0 or 1 checkpoints
	// at every eligible boundary) or, with Shards > 1, the stride of the
	// dispatched specs (default: one simulated day).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// Fingerprint is the coordinator's expected determinism fingerprint for
	// this shard, derived from this spec itself (core's specFingerprint). A
	// runner whose rebuilt configuration fingerprints differently must
	// refuse the spec. Run ignores a Config's Fingerprint: the coordinator
	// derives each dispatched spec's own, and checkpoints carry the run's.
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
