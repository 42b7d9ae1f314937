package state

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"freephish/internal/analysis"
)

// CheckpointEncoder writes the self-verifying envelopes of one run's
// successive checkpoints. Its output is byte-identical to marshalling the
// payload and then the checkpointFile envelope around it, but a cut costs
// only the JSON of what changed since the previous cut plus one copy and
// one hash of the rest:
//
//   - Records are encoded once. The encoder keeps the JSON of every record
//     it has already written and, at the next cut, encodes only the ones
//     appended since. This relies on a record being frozen once admitted:
//     AddRecord receives a finished record (the page body was released
//     before admission) and nothing writes to it afterwards. Before
//     reusing its cache the encoder checks that the cached records are,
//     pointer for pointer, a prefix of the snapshot's records; after a
//     Restore or SortRecords they are not, and it starts over.
//   - The envelope is written straight around the payload (see envelope),
//     so the payload is never re-marshalled or re-compacted.
//
// The zero value is ready to use. A CheckpointEncoder is not safe for
// concurrent use. Each returned slice is freshly allocated and belongs to
// the caller.
type CheckpointEncoder struct {
	records recordCache

	// w holds the payload parts that are not cached; the cached records
	// go in at offset splice (-1: there are none).
	w      jsonAppender
	splice int
}

// jsonAppender appends values' JSON, as json.Marshal writes them, to buf.
// Its encoder draws on encoding/json's pooled state, so appending a value
// allocates nothing beyond what the value's own marshalling needs.
type jsonAppender struct {
	buf []byte
	enc *json.Encoder
}

func (a *jsonAppender) Write(p []byte) (int, error) {
	a.grow(len(p))
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// grow makes room for n more bytes, at least doubling the buffer when it
// is full: append's own growth of a large slice is 1.25×, which would
// allocate about five times a large buffer's final size on the way there.
func (a *jsonAppender) grow(n int) {
	if len(a.buf)+n > cap(a.buf) {
		grown := make([]byte, len(a.buf), 2*cap(a.buf)+n)
		copy(grown, a.buf)
		a.buf = grown
	}
}

// value appends v's JSON. json.Encoder escapes HTML exactly as json.Marshal
// does; only its trailing newline differs, and it is dropped.
func (a *jsonAppender) value(v any) error {
	if a.enc == nil {
		a.enc = json.NewEncoder(a)
	}
	if err := a.enc.Encode(v); err != nil {
		return err
	}
	a.buf = a.buf[:len(a.buf)-1]
	return nil
}

func (a *jsonAppender) str(s string) {
	a.grow(len(s))
	a.buf = append(a.buf, s...)
}

// Encode returns the envelope of c, as EncodeCheckpoint would.
func (e *CheckpointEncoder) Encode(c *Checkpoint) ([]byte, error) {
	e.w.buf, e.splice = e.w.buf[:0], -1
	if err := e.checkpointPayload(c); err != nil {
		return nil, fmt.Errorf("state: encode checkpoint: %w", err)
	}
	if e.splice < 0 {
		return envelope(kindCheckpoint, checkpointVersion, e.w.buf), nil
	}
	return envelope(kindCheckpoint, checkpointVersion, e.w.buf[:e.splice], e.records.json, e.w.buf[e.splice:]), nil
}

// checkpointPayload lays out c's payload: the fields of Checkpoint in
// declaration order, omitempty ones left out when nil.
func (e *CheckpointEncoder) checkpointPayload(c *Checkpoint) error {
	w := &e.w
	if c == nil {
		w.str("null")
		return nil
	}
	w.str(`{"fingerprint":`)
	if err := w.value(c.Fingerprint); err != nil {
		return err
	}
	w.str(`,"sim_now":`)
	if err := w.value(c.SimNow); err != nil {
		return err
	}
	w.str(`,"cycles":`)
	w.buf = strconv.AppendInt(w.buf, int64(c.Cycles), 10)
	w.str(`,"snapshot":`)
	if err := e.snapshot(c.Snapshot); err != nil {
		return err
	}
	if c.Poller != nil {
		w.str(`,"poller":`)
		if err := w.value(c.Poller); err != nil {
			return err
		}
	}
	if c.Limiter != nil {
		w.str(`,"limiter":`)
		if err := w.value(c.Limiter); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		w.str(`,"faults":`)
		if err := w.value(c.Faults); err != nil {
			return err
		}
	}
	w.str("}")
	return nil
}

// snapshot appends s as json.Marshal writes a *Snapshot, leaving a splice
// point for the cached records.
func (e *CheckpointEncoder) snapshot(s *Snapshot) error {
	w := &e.w
	if s == nil {
		w.str("null")
		return nil
	}
	w.str(`{"Stats":`)
	if err := w.value(&s.Stats); err != nil {
		return err
	}
	w.str(`,"Records":`)
	if s.Records == nil {
		w.str("null")
	} else {
		if err := e.records.sync(w, s.Records); err != nil {
			return err
		}
		w.str("[")
		e.splice = len(w.buf)
		w.str("]")
	}
	w.str(`,"Observations":`)
	if err := w.value(s.Observations); err != nil {
		return err
	}
	w.str(`,"Seen":`)
	if err := w.value(&s.Seen); err != nil {
		return err
	}
	w.str(`,"Events":`)
	if err := w.value(s.Events); err != nil {
		return err
	}
	w.str("}")
	return nil
}

// recordCache holds the JSON of a run's records, encoded once and reused
// while the cached records stay a prefix of the snapshot's.
type recordCache struct {
	// recs is the cache's own copy of the encoded record pointers, so an
	// in-place reorder of the live slice shows up as a mismatch.
	recs []*analysis.Record
	// json is their encodings, comma-joined.
	json []byte
}

// sync brings c up to recs, encoding only the records past the cached
// prefix. Records are compared by pointer, since an admitted record is
// frozen; on the first mismatch c starts over.
func (c *recordCache) sync(w *jsonAppender, recs []*analysis.Record) error {
	n := len(c.recs)
	if n > len(recs) || !slices.Equal(c.recs, recs[:n]) {
		c.recs, c.json, n = c.recs[:0], c.json[:0], 0
	}
	payload := w.buf
	w.buf = c.json
	var err error
	for i := n; i < len(recs) && err == nil; i++ {
		if i > 0 {
			w.str(",")
		}
		err = w.value(&recs[i])
	}
	c.json, w.buf = w.buf, payload
	if err != nil {
		c.recs, c.json = c.recs[:0], c.json[:0]
		return err
	}
	c.recs = append(c.recs, recs[n:]...)
	return nil
}

// envelope wraps the payload made of parts, in order, as json.Marshal
// writes a checkpointFile holding it: version, kind and a placeholder
// hash, then the payload, then its SHA-256 written over the placeholder.
// The output is one allocation of exactly its final size.
func envelope(kind string, version int, parts ...[]byte) []byte {
	const hashLen = 2 * sha256.Size
	head := `{"version":` + strconv.Itoa(version) + `,"kind":"` + kind + `","sha256":"`
	const payloadKey = `","payload":`
	size := len(head) + hashLen + len(payloadKey) + 1
	for _, p := range parts {
		size += len(p)
	}
	out := make([]byte, 0, size)
	out = append(out, head...)
	hashAt := len(out)
	out = out[:hashAt+hashLen]
	out = append(out, payloadKey...)
	start := len(out)
	for _, p := range parts {
		out = append(out, p...)
	}
	sum := sha256.Sum256(out[start:])
	hex.Encode(out[hashAt:], sum[:])
	return append(out, '}')
}
