package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"freephish/internal/obs"
	"freephish/internal/state"
	"freephish/internal/world"
)

// Checkpoint/resume for long studies. A full-scale run covers six virtual
// months; a killed process that restarts from the epoch re-pays the whole
// window. Instead, the driver loop cuts the study at ordered-apply
// boundaries — instants where every scheduled event at the current time
// has fully applied (Clock.NextAt is after Now), so no pipe stage, poll
// cycle, or monitor tick is in flight — and writes a state.Checkpoint: the
// study Snapshot plus the cursors Restore cannot rebuild (sim instant,
// poller cursors and dedup generations, quota bucket, chaos decision
// cursors).
//
// Resume does NOT deserialize the world — it rebuilds it. Every draw the
// world makes is keyed (posting events by global ordinal, assessments and
// reports by URL), so replaying the posting schedule to the checkpoint
// instant reconstructs the identical posts, sites, and infrastructure;
// the ecosystem's recorded reactions (feed listings, post removals, host
// takedowns, released page bodies) are re-applied from the records; and
// the in-flight §4.4 monitor schedules re-register at their next original
// tick instants. The standing invariant extends: a run killed at any cut
// point and resumed is byte-identical — records, journal, stats — to the
// uninterrupted run, on both backends, under the default fault profile
// (make verify-resume).

// checkpointer owns the cut-point cadence for one run.
type checkpointer struct {
	// every is the minimum virtual time between checkpoints
	// (CheckpointEvery poll intervals).
	every time.Duration
	// lastAt is the instant of the previous checkpoint (the epoch, or the
	// resumed-from instant).
	lastAt time.Time
	// enc encodes every cut of the run, so each cut encodes only the
	// records admitted since the previous one afresh.
	enc state.CheckpointEncoder
}

// newCheckpointer returns nil when checkpointing is off.
func (f *FreePhish) newCheckpointer() (*checkpointer, error) {
	if f.Config.CheckpointPath == "" && f.checkpointSink == nil {
		return nil, nil
	}
	stride := f.Config.CheckpointEvery
	if stride <= 0 {
		stride = 1
	}
	last := f.Config.Epoch
	if f.Config.Resume != nil {
		last = f.Config.Resume.SimNow
	}
	return &checkpointer{
		every:  time.Duration(stride) * f.Config.PollInterval,
		lastAt: last,
	}, nil
}

// maybe writes a checkpoint if the stride has elapsed and the current
// instant is a sound cut point. Called by the driver loop after every
// event; a write failure is returned (and fails the run) because an
// operator who asked for resumability must not silently lose it.
func (c *checkpointer) maybe(f *FreePhish) error {
	now := f.Clock.Now()
	if now.Sub(c.lastAt) < c.every {
		return nil
	}
	// Cut-point guard: only cut when no event remains at this instant.
	// Events at one instant fire in scheduling order, and a monitor tick
	// can share an instant with a poll cycle (or another monitor tick) —
	// cutting between them would capture a half-applied instant.
	if next, ok := f.Clock.NextAt(); ok && !next.After(now) {
		return nil
	}
	data, err := c.enc.Encode(f.buildCheckpoint())
	if err != nil {
		return err
	}
	if f.checkpointSink != nil {
		if err := f.checkpointSink(data); err != nil {
			return fmt.Errorf("core: checkpoint sink: %w", err)
		}
	}
	if f.Config.CheckpointPath != "" {
		if err := state.WriteCheckpointBytes(f.Config.CheckpointPath, data); err != nil {
			return err
		}
	}
	c.lastAt = now
	return nil
}

// buildCheckpoint captures the run at the current (fully applied) instant.
func (f *FreePhish) buildCheckpoint() *state.Checkpoint {
	var events []obs.Event
	if j := f.Metrics.Journal; j != nil {
		events = j.Events()
	}
	chk := &state.Checkpoint{
		Fingerprint: f.fingerprint(),
		SimNow:      f.Clock.Now(),
		Cycles:      f.State.Stats().Polls,
		Snapshot:    f.State.Snapshot(events),
		Poller:      f.poller.State(),
	}
	if f.poller.Limiter != nil {
		chk.Limiter = f.poller.Limiter.State()
	}
	if f.injector != nil {
		chk.Faults = f.injector.Cursors()
	}
	return chk
}

// fingerprintVersion prefixes every fingerprint. v1 was a hand-written
// format string over the same knobs; v2 is derived from the wire spec.
const fingerprintVersion = "v2"

// fingerprint renders the determinism-relevant configuration of this run
// — the study spec plus its shard position — as specFingerprint does.
// The position is this framework's own (shard 0 of 0 unless it is a shard
// child), whatever Config.Shard and Config.Shards hold.
func (f *FreePhish) fingerprint() string {
	sp := f.Config.ShardSpec
	sp.Shard, sp.Shards = f.shardIndex, f.shardCount
	return specFingerprint(sp)
}

// specFingerprint is the version followed by the canonical JSON of sp
// with the deployment-only fields zeroed: the study is byte-identical
// across Workers, QueueDepth, Backend and the checkpoint stride, so a
// checkpoint cut on one backend or worker count resumes on another. Every other field shapes the study's draws, schedule, or
// output bytes. A shard's checkpoint captures one residue class of the
// posting schedule, so the shard position stays in: adopting it into a
// different position (or an unsharded run) would drop or duplicate
// sub-streams.
func specFingerprint(sp state.ShardSpec) string {
	sp.Workers, sp.QueueDepth = 0, 0
	sp.Backend, sp.CheckpointEvery, sp.Fingerprint = "", 0, ""
	sp.Epoch = sp.Epoch.UTC()
	b, err := json.Marshal(sp)
	if err != nil {
		// Only a non-finite float fails to encode. Such a study cannot be
		// dispatched either; its fingerprint says why instead of panicking.
		return fingerprintVersion + " unencodable: " + err.Error()
	}
	return fingerprintVersion + " " + string(b)
}

// checkResume refuses a checkpoint cut from another study. Run calls it
// before training, so a mismatched resume costs no training.
func (f *FreePhish) checkResume(chk *state.Checkpoint) error {
	if v, _, _ := strings.Cut(chk.Fingerprint, " "); v != fingerprintVersion {
		return fmt.Errorf("core: checkpoint fingerprint version %q is not supported (this build reads %s); re-run the study", v, fingerprintVersion)
	}
	if got, want := chk.Fingerprint, f.fingerprint(); got != want {
		return fmt.Errorf("core: checkpoint was cut from a different study configuration:\n  checkpoint: %s\n  this run:   %s", got, want)
	}
	return nil
}

// restoreRun rebuilds the run at the checkpoint instant (checkResume has
// accepted it). Called from runLocal after startServers and
// SchedulePosts, before the poll subscription, so the replayed events
// are exactly the posting schedule.
func (f *FreePhish) restoreRun(chk *state.Checkpoint) error {
	// 1. Replay the world to the cut instant. Only posting-schedule events
	// are queued (the poll subscription and monitors do not exist yet), so
	// this publishes every pre-cut post and site exactly as the original
	// run did; reshares scheduled past the cut stay queued for the live
	// phase. No chaos or retry machinery is touched — the replay calls the
	// Sim directly.
	f.Clock.RunUntil(chk.SimNow)
	// 2. Re-apply the recorded ecosystem reactions. All first-wins and
	// keyed per URL/post, so order and repetition are free.
	for _, rec := range chk.Snapshot.Records {
		rep := world.Replay{
			URL:      rec.Target.URL,
			Platform: rec.Target.Platform,
			PostID:   rec.Target.PostID,
			Listings: make(map[string]time.Time, len(rec.Blocklist)),
		}
		for name, v := range rec.Blocklist {
			if v.Detected {
				rep.Listings[name] = v.At
			}
		}
		if rec.PlatformRemoved {
			rep.PostRemovedAt = rec.PlatformRemovedAt
		}
		if rec.HostRemoved {
			rep.HostRemovedAt = rec.HostRemovedAt
		}
		f.Sim.ReplayOutcome(rep)
	}
	// 3. Release every processed URL's page body, as the original run's
	// evaluation did. The original released the hosted subset it actually
	// scanned; releasing the superset is observably identical (nothing
	// re-reads a non-record site's body) and avoids re-deriving which
	// fetches completed.
	for _, u := range chk.Snapshot.Seen {
		_ = f.Sim.Release(u)
	}
	// 4. Study state: counters, records, observations, dedup set.
	f.State.Restore(chk.Snapshot)
	// 5. Journal: rebuild from the checkpoint's events so the canonical
	// JSONL stays a pure function of the event set — pre-cut events keep
	// their recording instants (Ord), post-resume events append, and
	// finishRun's canonical sort interleaves them exactly as the
	// uninterrupted run would have.
	if f.Metrics.Journal != nil {
		f.Metrics.Journal = obs.RebuildJournal(f.Clock.Now, obs.DefaultJournalRing, chk.Snapshot.Events)
	}
	// 6. Cursors the snapshot cannot rebuild.
	if chk.Poller != nil {
		f.poller.RestoreState(chk.Poller)
	}
	if chk.Limiter != nil && f.poller.Limiter != nil {
		f.poller.Limiter.RestoreState(chk.Limiter)
	}
	if chk.Faults != nil && f.injector != nil {
		f.injector.RestoreCursors(chk.Faults)
	}
	// 7. Re-register the in-flight §4.4 monitor schedules — before the
	// poll subscription (runLocal), preserving the original property that
	// a monitor tick sharing an instant with a poll cycle was scheduled
	// first and therefore fires first.
	if f.Config.MonitorInterval > 0 {
		f.resumeMonitors(chk.SimNow)
	}
	return nil
}

// resumeMonitors re-registers the periodic re-check schedule of every
// record whose observation is still incomplete at the cut instant. The
// original run registered each monitor at its classification instant C
// with ticks at C+i, C+2i, ... — the first tick unconditional, later
// ticks while they stay within the record's horizon. The next original
// tick after the cut at T is C + (floor((T-C)/i)+1)·i; re-registering
// there with the original horizon reproduces the remaining tick sequence
// exactly. Records iterate in canonical order — same-instant monitor
// ticks for different URLs are order-free (all their mutations and fault
// keys are per-URL, and the journal sorts by URL within an instant).
func (f *FreePhish) resumeMonitors(at time.Time) {
	interval := f.Config.MonitorInterval
	feedNames := f.world.Feeds.FeedNames()
	obsMap := f.State.Observations()
	for _, rec := range f.State.Records() {
		ob := obsMap[rec.Target.URL]
		if ob != nil && monitorDone(ob, feedNames) {
			continue // the original monitor already stopped itself
		}
		c := rec.ClassifiedAt
		k := at.Sub(c)/interval + 1
		first := c.Add(time.Duration(k) * interval)
		until := rec.Target.SharedAt.Add(MonitorHorizon)
		if k > 1 && first.After(until) {
			continue // the original schedule had already run out
		}
		f.monitorFrom(rec, first)
	}
}

// monitorDone reports whether an observation has seen everything the
// monitor watches for — the moment the original run's tick stopped itself.
func monitorDone(ob *state.Observation, feedNames []string) bool {
	if ob.HostDownAt.IsZero() {
		return false
	}
	for _, name := range feedNames {
		if _, seen := ob.Listings[name]; !seen {
			return false
		}
	}
	return true
}

// nextPollAfter computes the original poll schedule's next tick after t.
// Poll j fires at epoch + j·interval; the first tick is unconditional
// (Every's contract), later ticks only within the window — mirrored here
// so the resumed subscription is exactly the original's continuation.
func (f *FreePhish) nextPollAfter(t time.Time, until time.Time) (time.Time, bool) {
	interval := f.Config.PollInterval
	k := t.Sub(f.Config.Epoch)/interval + 1
	next := f.Config.Epoch.Add(time.Duration(k) * interval)
	if k > 1 && next.After(until) {
		return time.Time{}, false // the poll window had already closed
	}
	return next, true
}
