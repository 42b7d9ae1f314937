// Package state owns the study's mutable outcome: the operational
// counters, the record set, the active monitor's per-URL observations,
// and the stream dedup set. It exists so the pipeline in internal/core
// can be sharded — every stateful effect flows through one of the apply
// points below, a StudyState can be snapshotted into a serializable
// value, and snapshots from independent shards merge deterministically
// into the same bytes a single-process run produces.
//
// Ownership rules (enforced by an AST lint in internal/core's tests):
//
//   - Only this package mutates Stats fields or Observation fields.
//     Everyone else calls an apply point (AddPoll, AddDecision,
//     MarkListed, ...) and reads through the accessors.
//   - An apply point is single-writer: core's ordered apply phase and
//     the monitor's ordered drain call them from one goroutine per
//     StudyState. The type adds no locking of its own.
//   - Merge is order-independent: Merge(a, b) == Merge(b, a) for
//     shards of the same study, because every per-URL outcome is drawn
//     from RNG streams keyed by the URL (not by arrival order) and the
//     merged set is canonically sorted.
package state

import (
	"sort"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/obs"
)

// Stats are the framework's operational counters.
type Stats struct {
	Polls          int
	PostsSeen      int
	URLsScanned    int
	FlaggedFWB     int
	FlaggedSelf    int
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	ReportsSent    int
	// LexicalBenign / LexicalPhish count cascade short-circuits: URLs the
	// triage tier resolved without a fetch (always 0 with the cascade off).
	LexicalBenign int
	LexicalPhish  int
}

// merge folds o into s. Polls takes the max rather than the sum: every
// shard ticks the full poll schedule over its own sub-stream, so the
// cycle count is a property of the study window, not of the shard.
func (s *Stats) merge(o Stats) {
	if o.Polls > s.Polls {
		s.Polls = o.Polls
	}
	s.PostsSeen += o.PostsSeen
	s.URLsScanned += o.URLsScanned
	s.FlaggedFWB += o.FlaggedFWB
	s.FlaggedSelf += o.FlaggedSelf
	s.TruePositives += o.TruePositives
	s.FalsePositives += o.FalsePositives
	s.FalseNegatives += o.FalseNegatives
	s.ReportsSent += o.ReportsSent
	s.LexicalBenign += o.LexicalBenign
	s.LexicalPhish += o.LexicalPhish
}

// Observation is what the active monitor saw for one URL.
type Observation struct {
	// HostDownAt is when a probe first returned a non-200 status.
	HostDownAt time.Time
	// Listings maps entity name to when a feed lookup first matched.
	Listings map[string]time.Time
	// Probes counts monitor cycles executed.
	Probes int
}

// MarkProbe counts one monitor cycle.
func (o *Observation) MarkProbe() { o.Probes++ }

// MarkHostDown records the first time a probe saw the site gone
// (first observation wins).
func (o *Observation) MarkHostDown(at time.Time) {
	if o.HostDownAt.IsZero() {
		o.HostDownAt = at
	}
}

// MarkListed records the first time a feed lookup matched (first
// observation wins per entity).
func (o *Observation) MarkListed(entity string, at time.Time) {
	if o.Listings == nil {
		o.Listings = make(map[string]time.Time)
	}
	if _, seen := o.Listings[entity]; !seen {
		o.Listings[entity] = at
	}
}

// StudyState is the single mutable value a study run accumulates into.
// Construct with New; mutate only through the apply points.
type StudyState struct {
	stats        Stats
	study        *analysis.Study
	observations map[string]*Observation
	seen         map[string]bool
}

// New returns an empty StudyState.
func New() *StudyState {
	return &StudyState{
		study:        &analysis.Study{},
		observations: make(map[string]*Observation),
		seen:         make(map[string]bool),
	}
}

// Apply points — the only mutation surface.

// AddPoll counts one streaming-module cycle.
func (s *StudyState) AddPoll() { s.stats.Polls++ }

// AddPostSeen counts one streamed post.
func (s *StudyState) AddPostSeen() { s.stats.PostsSeen++ }

// MarkSeen registers a URL's first appearance; it reports true when the
// URL is fresh and false for a re-share of an already-processed URL.
func (s *StudyState) MarkSeen(url string) bool {
	if s.seen[url] {
		return false
	}
	s.seen[url] = true
	return true
}

// AddScanned counts one successfully snapshotted URL.
func (s *StudyState) AddScanned() { s.stats.URLsScanned++ }

// AddFlagged counts one URL the classifier flagged, by cohort.
func (s *StudyState) AddFlagged(fwb bool) {
	if fwb {
		s.stats.FlaggedFWB++
	} else {
		s.stats.FlaggedSelf++
	}
}

// AddLexical counts one cascade short-circuit, by verdict.
func (s *StudyState) AddLexical(phish bool) {
	if phish {
		s.stats.LexicalPhish++
	} else {
		s.stats.LexicalBenign++
	}
}

// AddDecision scores one flag decision against ground truth; kind is
// "tp", "fp", "fn", or "tn" (true negatives are counted only by the
// metrics layer, not here).
func (s *StudyState) AddDecision(kind string) {
	switch kind {
	case "tp":
		s.stats.TruePositives++
	case "fp":
		s.stats.FalsePositives++
	case "fn":
		s.stats.FalseNegatives++
	}
}

// AddReportSent counts one disclosure to an FWB service.
func (s *StudyState) AddReportSent() { s.stats.ReportsSent++ }

// AddRecord admits a record to the study.
func (s *StudyState) AddRecord(r *analysis.Record) { s.study.Add(r) }

// StartObservation registers a URL with the active monitor and returns
// its Observation (creating it on first call).
func (s *StudyState) StartObservation(url string) *Observation {
	if ob, ok := s.observations[url]; ok {
		return ob
	}
	ob := &Observation{Listings: make(map[string]time.Time)}
	s.observations[url] = ob
	return ob
}

// Accessors.

// Stats returns the current counters.
func (s *StudyState) Stats() Stats { return s.stats }

// Study returns the accumulated record set.
func (s *StudyState) Study() *analysis.Study { return s.study }

// Records returns the record slice (shared, not copied).
func (s *StudyState) Records() []*analysis.Record { return s.study.Records }

// Observations returns the per-URL monitor findings (shared map).
func (s *StudyState) Observations() map[string]*Observation { return s.observations }

// SortRecords puts the record set in canonical order: by classification
// time, then URL. Every run — sharded or not — sorts before rendering,
// which is what makes an N-shard merge byte-identical to the 1-shard
// record stream (within one poll cycle the 1-shard pipeline admits in
// stream order; the canonical order is a pure function of the records).
func (s *StudyState) SortRecords() { sortRecords(s.study.Records) }

// sortRecords puts recs in the canonical order SortRecords and Merge share.
func sortRecords(recs []*analysis.Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if !recs[i].ClassifiedAt.Equal(recs[j].ClassifiedAt) {
			return recs[i].ClassifiedAt.Before(recs[j].ClassifiedAt)
		}
		return recs[i].Target.URL < recs[j].Target.URL
	})
}

// Snapshot is the serializable image of a StudyState plus the shard's
// canonical journal events. Records and Observations share pointers with
// the live state — a shard snapshots once, at the end of its run, and is
// then discarded. The struct round-trips through encoding/json (the
// state_test suite asserts it), which is what lets a future coordinator
// collect shard results over the wire.
type Snapshot struct {
	Stats        Stats
	Records      []*analysis.Record
	Observations map[string]*Observation
	// Seen is the dedup set, sorted for stable serialization.
	Seen []string
	// Events is the shard's lifecycle journal (Wall cleared — wall
	// timestamps are operational noise, never part of the canonical
	// study). Nil when the run had no journal.
	Events []obs.Event
}

// Snapshot captures the state. events is the run's canonical lifecycle
// journal (nil when tracing was off).
func (s *StudyState) Snapshot(events []obs.Event) *Snapshot {
	seen := make([]string, 0, len(s.seen))
	for u := range s.seen {
		seen = append(seen, u)
	}
	sort.Strings(seen)
	evs := make([]obs.Event, len(events))
	copy(evs, events)
	for i := range evs {
		evs[i].Wall = time.Time{}
	}
	return &Snapshot{
		Stats:        s.stats,
		Records:      s.study.Records,
		Observations: s.observations,
		Seen:         seen,
		Events:       evs,
	}
}

// Restore replaces the state with the snapshot's contents.
func (s *StudyState) Restore(snap *Snapshot) {
	s.stats = snap.Stats
	s.study = &analysis.Study{Records: snap.Records}
	s.observations = snap.Observations
	if s.observations == nil {
		s.observations = make(map[string]*Observation)
	}
	s.seen = make(map[string]bool, len(snap.Seen))
	for _, u := range snap.Seen {
		s.seen[u] = true
	}
	s.SortRecords()
}

// Merge folds shard snapshots into one canonical snapshot. It is
// deterministic and order-independent: the same set of snapshots yields
// the same bytes no matter how they are listed. URLs are disjoint across
// shards (the posting schedule partitions by event ordinal), so records,
// observations, and seen sets union without conflicts; stats fold
// field-wise (sum, except Polls which takes the max); events re-sort
// into the canonical journal order (obs.SortCanonical).
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Observations: make(map[string]*Observation)}
	seen := make(map[string]bool)
	hasEvents := false
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		out.Stats.merge(sn.Stats)
		out.Records = append(out.Records, sn.Records...)
		for u, ob := range sn.Observations {
			out.Observations[u] = ob
		}
		for _, u := range sn.Seen {
			seen[u] = true
		}
		if sn.Events != nil {
			hasEvents = true
			out.Events = append(out.Events, sn.Events...)
		}
	}
	sortRecords(out.Records)
	out.Seen = make([]string, 0, len(seen))
	for u := range seen {
		out.Seen = append(out.Seen, u)
	}
	sort.Strings(out.Seen)
	if hasEvents {
		out.Events = obs.SortCanonical(out.Events)
	}
	return out
}
