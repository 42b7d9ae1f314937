package state

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
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
	return envelope(kindSnapshot, snapshotWireVersion, payload), nil
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
// without decoding or verifying the payload. The coordinator calls it per
// streamed checkpoint to timestamp ops events and the /dash shard panel;
// the full DecodeCheckpoint still runs (and verifies) before any adoption.
// It walks the members of the envelope and of the payload's top-level
// object, finding where each value ends by its brackets and quotes alone,
// and decodes only version, kind and sim_now. Keys match as
// DecodeCheckpoint matches them, a later duplicate winning, so wherever
// DecodeCheckpoint accepts the bytes the peek returns the same instant.
// Like DecodeCheckpoint it rejects an envelope of another kind or version
// and a payload that is not an object.
func PeekCheckpointInstant(data []byte) (time.Time, error) {
	var (
		version    int
		kind       string
		at         time.Time
		hasPayload bool
	)
	err := eachMember(data, func(key string, val []byte) error {
		switch {
		case strings.EqualFold(key, "version"):
			return json.Unmarshal(val, &version)
		case strings.EqualFold(key, "kind"):
			return json.Unmarshal(val, &kind)
		case strings.EqualFold(key, "payload"):
			at, hasPayload = time.Time{}, true
			return eachMember(val, func(key string, val []byte) error {
				if strings.EqualFold(key, "sim_now") {
					return json.Unmarshal(val, &at)
				}
				return nil
			})
		}
		return nil
	})
	switch {
	case err != nil:
	case kind != "" && kind != kindCheckpoint:
		err = fmt.Errorf("envelope has kind %q, want %q", kind, kindCheckpoint)
	case version != checkpointVersion:
		err = fmt.Errorf("format version %d, want %d", version, checkpointVersion)
	case !hasPayload:
		err = fmt.Errorf("envelope has no payload")
	}
	if err != nil {
		return time.Time{}, fmt.Errorf("state: peek checkpoint: %w", err)
	}
	return at, nil
}

// eachMember calls f with each key and raw value of the JSON object that
// data holds, in order. It checks the object's own punctuation but not
// the values it hands on, whose ends it finds with valueEnd; json.Unmarshal
// of data would reject any that are malformed.
func eachMember(data []byte, f func(key string, val []byte) error) error {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return fmt.Errorf("want an object")
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return nil
	}
	for {
		if i == len(data) || data[i] != '"' {
			return fmt.Errorf("want an object key at byte %d", i)
		}
		end, err := valueEnd(data, i)
		if err != nil {
			return err
		}
		var key string
		if err := json.Unmarshal(data[i:end], &key); err != nil {
			return err
		}
		i = skipSpace(data, end)
		if i == len(data) || data[i] != ':' {
			return fmt.Errorf("want ':' at byte %d", i)
		}
		i = skipSpace(data, i+1)
		if end, err = valueEnd(data, i); err != nil {
			return err
		}
		if err := f(key, data[i:end]); err != nil {
			return err
		}
		i = skipSpace(data, end)
		switch {
		case i == len(data):
			return io.ErrUnexpectedEOF
		case data[i] == '}':
			return nil
		case data[i] != ',':
			return fmt.Errorf("want ',' or '}' at byte %d", i)
		}
		i = skipSpace(data, i+1)
	}
}

// valueEnd returns the offset just past the JSON value that starts at
// data[i]. On valid JSON that is where the value ends: a container ends
// at its matching bracket, a string at its closing quote, and any other
// value at the next delimiter.
func valueEnd(data []byte, i int) (int, error) {
	depth := 0
	for i < len(data) {
		switch data[i] {
		case '"':
			n := quotedLen(data[i:])
			if n < 0 {
				return 0, io.ErrUnexpectedEOF
			}
			i += n
		case '{', '[':
			depth++
			i++
			continue
		case '}', ']':
			if depth == 0 {
				return i, nil
			}
			depth--
			i++
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, nil
			}
			i++
			continue
		default:
			i++
			continue
		}
		if depth == 0 {
			return i, nil
		}
	}
	return 0, io.ErrUnexpectedEOF
}

// quotedLen returns the length of the JSON string at the start of s,
// quotes included, or -1 if it does not end.
func quotedLen(s []byte) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return i + 1
		case '\\':
			i++
		}
	}
	return -1
}

// skipSpace returns the offset of the first non-whitespace byte of data
// at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
