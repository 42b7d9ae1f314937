package state

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/faults"
)

// Checkpoint extends Snapshot with everything Restore cannot rebuild: the
// sim-clock instant the study was cut at, the poller's cursor state (poll
// windows, post-ID dedup generations, quota bucket), and the chaos
// injector's per-key decision cursors. A Snapshot describes *what the
// study has concluded*; a Checkpoint additionally pins *where in the
// schedule it was* — which is exactly the split between state the world
// replay reconstructs deterministically (posts, sites, feeds, RNG draws —
// all keyed by URL or posting ordinal) and state that only exists as
// accumulated cursors.
//
// A Checkpoint is only valid against the identical study configuration; the
// Fingerprint records the determinism-relevant config so a resume against a
// different seed, window, population, or fault profile fails loudly instead
// of silently producing a franken-study.
type Checkpoint struct {
	// Fingerprint identifies the determinism-relevant configuration the
	// checkpoint was cut from.
	Fingerprint string `json:"fingerprint"`
	// SimNow is the virtual instant the study was cut at — always an
	// ordered-apply boundary (end of a poll cycle or monitor tick, with no
	// other event pending at the same instant).
	SimNow time.Time `json:"sim_now"`
	// Cycles is the number of completed poll cycles at the cut.
	Cycles int `json:"cycles"`
	// Snapshot is the study state at the cut, including the canonical
	// journal events recorded so far.
	Snapshot *Snapshot `json:"snapshot"`
	// Poller is the streaming module's cursor state.
	Poller *crawler.PollerState `json:"poller,omitempty"`
	// Limiter is the poll quota bucket, when one was configured.
	Limiter *crawler.LimiterState `json:"limiter,omitempty"`
	// Faults is the chaos injector's decision state, when chaos was on.
	Faults *faults.Cursors `json:"faults,omitempty"`
}

// checkpointVersion is the on-disk format version; bumped when the payload
// shape changes incompatibly.
const checkpointVersion = 1

// checkpointFile is the on-disk wrapper: the payload plus an integrity
// hash, so a torn or corrupted file is rejected with a clear error instead
// of resuming a half-written study. The same envelope carries snapshots
// over the worker RPC; Kind distinguishes the two so neither decoder can be
// fed the other's payload (empty Kind means "checkpoint", for files written
// before the tag existed).
type checkpointFile = envelopeOf[json.RawMessage]

// envelopeOf is the envelope with its payload decoded as P.
type envelopeOf[P any] struct {
	Version int    `json:"version"`
	Kind    string `json:"kind,omitempty"`
	SHA256  string `json:"sha256"`
	Payload P      `json:"payload"`
}

// envelopeForm is one kind of envelope: its tag and version, and the
// words its errors use.
type envelopeForm struct {
	kind    string
	version int
	// name is the subject of the version and hash errors; notEnvelope is
	// the error for bytes that are no envelope at all; kindErr prefixes
	// the error for an envelope of another kind.
	name, notEnvelope, kindErr string
}

var (
	checkpointEnvelope = envelopeForm{
		kind: kindCheckpoint, version: checkpointVersion, name: "checkpoint",
		notEnvelope: "checkpoint is not a valid checkpoint file", kindErr: "envelope",
	}
	snapshotEnvelope = envelopeForm{
		kind: kindSnapshot, version: snapshotWireVersion, name: "snapshot wire",
		notEnvelope: "snapshot wire data is not a valid envelope", kindErr: "snapshot wire envelope",
	}
)

// check rejects an envelope head of another kind or version. A
// checkpoint's empty kind reads as "checkpoint" (files written before
// the tag existed).
func (e envelopeForm) check(kind string, version int) error {
	if kind != e.kind && !(kind == "" && e.kind == kindCheckpoint) {
		return fmt.Errorf("state: %s has kind %q, want %q", e.kindErr, kind, e.kind)
	}
	if version != e.version {
		return fmt.Errorf("state: %s format version %d, want %d", e.name, version, e.version)
	}
	return nil
}

// open parses data as an envelope of this form, verifies the payload's
// hash, and returns the payload.
func (e envelopeForm) open(data []byte) (json.RawMessage, error) {
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("state: %s (truncated or not JSON): %w", e.notEnvelope, err)
	}
	if err := e.check(f.Kind, f.Version); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(f.Payload)
	if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
		return nil, fmt.Errorf("state: %s payload corrupted: sha256 %s, recorded %s", e.name, got, f.SHA256)
	}
	return f.Payload, nil
}

// EncodeCheckpoint serializes a checkpoint into its self-verifying file
// format. A run that cuts many checkpoints keeps one CheckpointEncoder
// instead, which writes the same bytes without re-encoding the records
// of earlier cuts.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("state: encode checkpoint: %w", err)
	}
	return envelope(kindCheckpoint, checkpointVersion, payload), nil
}

// DecodeCheckpoint parses and verifies an encoded checkpoint. It rejects
// truncated or corrupted data (payload hash mismatch) and unknown format
// versions with errors that say so.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := checkpointEnvelope.open(data)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("state: decode checkpoint payload: %w", err)
	}
	if c.Snapshot == nil {
		return nil, fmt.Errorf("state: checkpoint has no snapshot")
	}
	return &c, nil
}

// WriteCheckpoint atomically writes the checkpoint to path: the encoding
// goes to a temp file in the same directory, synced, then renamed over the
// destination — a crash mid-write leaves the previous checkpoint intact.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	return WriteCheckpointBytes(path, data)
}

// WriteCheckpointBytes is WriteCheckpoint for an already-encoded
// checkpoint.
func WriteCheckpointBytes(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("state: write checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("state: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("state: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("state: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("state: commit checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("state: read checkpoint: %w", err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return c, nil
}
