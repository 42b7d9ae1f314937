package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The journal is the per-URL lifecycle tracing layer: where the metrics
// registry answers "how many, how fast", the journal answers "what
// happened to THIS URL, and when". It records two classes of events:
//
//   - Lifecycle events are the canonical record: posted → observed-in-CT →
//     polled → fetched → classified → reported → takedown/re-check. They
//     are recorded ONLY from deterministic, single-threaded points of the
//     pipeline (the ordered apply phase and the monitor's ordered drain),
//     so the sequence — and the JSONL file WriteJSONL emits — is
//     byte-identical across workers × queue-depth × backend × chaos
//     profile, exactly like the study output itself.
//   - Ops events (pipe stage emissions, retries, breaker transitions,
//     injected faults, world port calls) come from concurrent hooks whose
//     interleaving is scheduler-dependent. They land only in the bounded
//     in-memory ring that feeds the live dashboard, never in the canonical
//     file, so chaos stays explainable without breaking byte-identity.
//
// Every method is a no-op on a nil *Journal, so call sites can hold a nil
// journal when tracing is off and pay only a pointer test (guard hot
// paths with `if j != nil` to also skip argument construction).

// Lifecycle event types, in the order a URL typically experiences them.
const (
	EvPosted     = "posted"      // the URL appeared in a social post
	EvObservedCT = "observed_ct" // its certificate is visible in the CT log
	EvPolled     = "polled"      // the streaming module picked it up
	EvFetched    = "fetched"     // the snapshotter crawled it
	EvClassified = "classified"  // the full model scored its fetched page
	// EvClassifiedLexical marks a cascade short-circuit: the URL-only
	// tier resolved the URL with a confident verdict and it never
	// entered the fetch stage (so a trace has either fetched+classified
	// or classified_lexical, never both).
	EvClassifiedLexical = "classified_lexical"
	EvReported          = "reported"  // the reporting module disclosed it
	EvTakedown          = "takedown"  // the platform or host removed it
	EvRecheck           = "recheck"   // the §4.4 monitor re-probed it
	EvHostDown          = "host_down" // a monitor probe first saw the site gone
	EvListed            = "listed"    // a blocklist feed first listed it
)

// Ops event types (ring-only; see the class discussion above).
const (
	EvStage   = "stage"   // a pipe stage emitted an item in order
	EvRetry   = "retry"   // the retry policy re-issued an attempt
	EvGiveUp  = "giveup"  // the retry policy exhausted its budget
	EvBreaker = "breaker" // a circuit breaker opened or closed
	EvFault   = "fault"   // the chaos injector fired
	EvPort    = "port"    // a world port call completed
	// EvShardRetry marks a coordinator-level failover: a shard attempt
	// failed and the coordinator re-ran the sub-stream with a fresh child.
	EvShardRetry = "shard_retry"
	// EvShardDispatch marks the coordinator handing a shard spec to a
	// runner (local child or remote worker) for one attempt.
	EvShardDispatch = "shard_dispatch"
	// EvShardCheckpoint marks the coordinator receiving a streamed shard
	// checkpoint — the current adoption point for that shard.
	EvShardCheckpoint = "shard_checkpoint"
	// EvShardAdopt marks a failover attempt that resumed from the dead
	// runner's last streamed checkpoint instead of replaying from scratch.
	EvShardAdopt = "shard_adopt"
	// EvShardDone marks a shard returning its final snapshot.
	EvShardDone = "shard_done"
)

// Event classes.
const (
	ClassLifecycle = "lifecycle"
	ClassOps       = "ops"
)

// Event is one journal entry. Seq orders events within their class; Sim
// is the virtual-clock timestamp the event describes (for EvPosted that
// is the share time, which may precede the observation instant); Ord is
// the virtual-clock instant the event was RECORDED (the poll cycle or
// monitor tick it belongs to) — the primary key of the canonical order
// (see SortCanonical); Wall is the wall-clock instant the event was
// recorded. Ord and Wall are both excluded from the canonical JSONL:
// Ord is recoverable only in-process (events read back through
// ReadJournal carry a zero Ord and are already in canonical order),
// and two runs of the same seed never share wall timestamps.
type Event struct {
	Seq   uint64
	Class string
	Type  string
	URL   string
	Sim   time.Time
	Ord   time.Time
	Wall  time.Time
	Attrs map[string]string
}

// eventDTO is the canonical JSONL shape. Attrs marshal with sorted keys
// (encoding/json's map order), so a line's bytes are a pure function of
// the event.
type eventDTO struct {
	Seq   uint64            `json:"seq"`
	Sim   time.Time         `json:"sim"`
	Type  string            `json:"type"`
	URL   string            `json:"url,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DefaultJournalRing is the ops/tail ring capacity when the knob is zero.
const DefaultJournalRing = 4096

// Journal records lifecycle and ops events. Construct with NewJournal;
// all methods are safe for concurrent use and are no-ops on a nil
// receiver.
type Journal struct {
	simNow  func() time.Time
	wallNow func() time.Time

	mu        sync.Mutex
	seq       uint64 // lifecycle sequence
	opsSeq    uint64
	lifecycle []Event
	byURL     map[string][]int // URL → indices into lifecycle
	ring      []Event          // bounded tail of ALL events, for the dashboard
	ringCap   int
	ringN     uint64 // total events ever pushed to the ring
	counts    map[string]uint64
	sink      io.Writer // optional stream of canonical lines
	sinkErr   error
}

// NewJournal returns an empty journal. simNow supplies the default event
// timestamp for ops events (nil falls back to wall time); ringCap bounds
// the dashboard ring (0 = DefaultJournalRing).
func NewJournal(simNow func() time.Time, ringCap int) *Journal {
	if ringCap <= 0 {
		ringCap = DefaultJournalRing
	}
	j := &Journal{
		simNow:  simNow,
		wallNow: time.Now,
		byURL:   make(map[string][]int),
		ring:    make([]Event, 0, ringCap),
		ringCap: ringCap,
		counts:  make(map[string]uint64),
	}
	if j.simNow == nil {
		j.simNow = j.wallNow
	}
	return j
}

// SetSink streams each canonical lifecycle event to w as it is recorded,
// in addition to retaining it in memory. Callers own buffering and
// closing; the first write error is retained and reported by SinkErr.
// The sink sees events in live recording order; a run that rebuilds its
// journal into canonical order at the end (see Rebuild) may emit an
// end-of-run file whose line order differs from the live stream.
func (j *Journal) SetSink(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = w
	j.mu.Unlock()
}

// SinkErr reports the first error a streaming sink write hit, if any.
func (j *Journal) SinkErr() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// Record appends one canonical lifecycle event. sim is the virtual time
// the event describes; attrs are alternating key, value pairs. Record
// must be called only from deterministic, single-threaded pipeline points
// — that discipline, not anything the journal enforces, is what keeps the
// canonical sequence byte-identical across runs.
func (j *Journal) Record(url, typ string, sim time.Time, attrs ...string) {
	if j == nil {
		return
	}
	ev := Event{Class: ClassLifecycle, Type: typ, URL: url, Sim: sim, Ord: j.simNow(), Attrs: attrMap(attrs)}
	j.mu.Lock()
	ev.Seq = j.seq
	j.seq++
	ev.Wall = j.wallNow()
	j.counts[typ]++
	j.byURL[url] = append(j.byURL[url], len(j.lifecycle))
	j.lifecycle = append(j.lifecycle, ev)
	j.push(ev)
	if j.sink != nil && j.sinkErr == nil {
		line, err := marshalCanonical(ev)
		if err == nil {
			_, err = j.sink.Write(line)
		}
		j.sinkErr = err
	}
	j.mu.Unlock()
}

// RecordOps appends one ops event to the dashboard ring. Ops events carry
// their own sequence space so concurrent hooks can never perturb the
// canonical lifecycle ordering; sim defaults to the journal's clock.
func (j *Journal) RecordOps(url, typ string, attrs ...string) {
	if j == nil {
		return
	}
	ev := Event{Class: ClassOps, Type: typ, URL: url, Sim: j.simNow(), Attrs: attrMap(attrs)}
	j.mu.Lock()
	ev.Seq = j.opsSeq
	j.opsSeq++
	ev.Wall = j.wallNow()
	j.counts[typ]++
	j.push(ev)
	j.mu.Unlock()
}

// push appends ev to the ring, evicting the oldest entry once full.
// Caller holds j.mu.
func (j *Journal) push(ev Event) {
	if len(j.ring) < j.ringCap {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.ringN%uint64(j.ringCap)] = ev
	}
	j.ringN++
}

// attrMap folds alternating key, value pairs into a map; an odd trailing
// key gets an empty value rather than being dropped.
func attrMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 < len(kv) {
			m[kv[i]] = kv[i+1]
		} else {
			m[kv[i]] = ""
		}
	}
	return m
}

// Len reports how many lifecycle events have been recorded.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.lifecycle)
}

// Events returns a copy of the canonical lifecycle sequence.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.lifecycle...)
}

// Trace returns the lifecycle events recorded for one URL, in order.
func (j *Journal) Trace(url string) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	idx := j.byURL[url]
	out := make([]Event, len(idx))
	for i, k := range idx {
		out[i] = j.lifecycle[k]
	}
	return out
}

// URLs returns every traced URL in first-seen order.
func (j *Journal) URLs() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	type first struct {
		url string
		at  int
	}
	firsts := make([]first, 0, len(j.byURL))
	for u, idx := range j.byURL {
		if u == "" || len(idx) == 0 {
			continue
		}
		firsts = append(firsts, first{u, idx[0]})
	}
	// byURL iterates in map order; sort by first lifecycle index.
	for i := 1; i < len(firsts); i++ {
		for k := i; k > 0 && firsts[k].at < firsts[k-1].at; k-- {
			firsts[k], firsts[k-1] = firsts[k-1], firsts[k]
		}
	}
	out := make([]string, len(firsts))
	for i, f := range firsts {
		out[i] = f.url
	}
	return out
}

// Tail returns up to n most recent events (both classes), oldest first —
// the dashboard's recent-activity feed.
func (j *Journal) Tail(n int) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	size := len(j.ring)
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := j.ringN - uint64(n)
	for i := start; i < j.ringN; i++ {
		out = append(out, j.ring[i%uint64(j.ringCap)])
	}
	return out
}

// Counts returns a copy of the per-type event counters.
func (j *Journal) Counts() map[string]uint64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]uint64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// WriteJSONL writes the canonical lifecycle journal: one JSON object per
// event, in sequence order, with sim timestamps only. The bytes are a
// pure function of the recorded sequence — the property `make
// verify-journal` sweeps across workers × queue-depth × backends.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	events := j.Events()
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		line, err := marshalCanonical(ev)
		if err != nil {
			return fmt.Errorf("obs: encode journal event %d: %w", ev.Seq, err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func marshalCanonical(ev Event) ([]byte, error) {
	b, err := json.Marshal(eventDTO{
		Seq: ev.Seq, Sim: ev.Sim, Type: ev.Type, URL: ev.URL, Attrs: ev.Attrs,
	})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ReadJournal parses a canonical JSONL journal written by WriteJSONL (or
// streamed through SetSink) back into events.
func ReadJournal(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var dto eventDTO
		if err := json.Unmarshal(sc.Bytes(), &dto); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		out = append(out, Event{
			Seq: dto.Seq, Class: ClassLifecycle, Type: dto.Type,
			URL: dto.URL, Sim: dto.Sim, Attrs: dto.Attrs,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read journal: %w", err)
	}
	return out, nil
}

// SortCanonical puts lifecycle events into the canonical study order —
// (Ord, URL, Seq) — and renumbers Seq 0..n-1. Ord groups events by the
// poll cycle or monitor tick that recorded them; URL orders the cycle's
// work; Seq (stable sort) preserves each URL's intra-frame order. The
// result is partition-invariant: a URL's events are recorded by exactly
// one shard (the posting schedule partitions URLs), so merging shard
// journals and sorting yields the same sequence a 1-shard run sorts
// into. The input is not modified.
func SortCanonical(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Ord.Equal(out[j].Ord) {
			return out[i].Ord.Before(out[j].Ord)
		}
		if out[i].URL != out[j].URL {
			return out[i].URL < out[j].URL
		}
		return out[i].Seq < out[j].Seq
	})
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}

// Rebuild replaces the journal's lifecycle sequence with a copy of
// events (typically a SortCanonical result, or a merge of several shards'
// journals), renumbering Seq 0..n-1 and rebuilding the per-URL index and
// the lifecycle types' counts. It works in place, so every holder of the
// journal — a dashboard, a pipeline's emit hook — sees the rebuilt
// sequence; the dashboard ring and the ops events' counts are kept, since
// they record what the live run did.
func (j *Journal) Rebuild(events []Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ev := range j.lifecycle {
		if j.counts[ev.Type]--; j.counts[ev.Type] == 0 {
			delete(j.counts, ev.Type)
		}
	}
	j.lifecycle = append(make([]Event, 0, len(events)), events...)
	clear(j.byURL)
	for i := range j.lifecycle {
		ev := &j.lifecycle[i]
		ev.Seq = uint64(i)
		j.counts[ev.Type]++
		j.byURL[ev.URL] = append(j.byURL[ev.URL], i)
	}
	j.seq = uint64(len(j.lifecycle))
}
