package core

import (
	"fmt"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/world"
)

// Verify runs internal-consistency checks over a completed study — the
// invariants every valid run must satisfy regardless of seed, scale,
// backend, or shard count. The end-to-end tests call it, and
// cmd/freephish can surface violations instead of silently printing
// corrupt tables.
//
// A single run's records are audited against its own world. A sharded
// study has one world per shard, and every shard runner audited its
// records against its own world before it snapshotted (SpecRunner.run),
// wherever it ran; here the merged records get the record-local checks
// and the study-level cohort check.
func (f *FreePhish) Verify() error {
	if err := f.auditRecords(f.Config.Shards <= 1); err != nil {
		return err
	}
	// Cohort sanity: both cohorts must exist for the comparisons to mean
	// anything.
	study := f.State.Study()
	if len(study.Select(analysis.FWBCohort)) == 0 || len(study.Select(analysis.SelfHostedCohort)) == 0 {
		return fmt.Errorf("study missing a cohort: %d records", len(study.Records))
	}
	return nil
}

// auditRecords checks the record-local invariants of every record and,
// with probe, that each record references a live post and a hosted site in
// this framework's world. The audit is harness-side, so it inspects the
// Sim through a fresh in-process port view: by the time it runs the http
// backend's servers are already down.
func (f *FreePhish) auditRecords(probe bool) error {
	w := world.Inproc(f.Sim)
	seen := map[string]bool{}
	horizonEnd := f.Config.Epoch.Add(f.Config.Duration + 7*24*time.Hour)
	for i, r := range f.State.Records() {
		t := r.Target
		if t == nil {
			return fmt.Errorf("record %d: nil target", i)
		}
		if seen[t.URL] {
			return fmt.Errorf("record %d: duplicate URL %q", i, t.URL)
		}
		seen[t.URL] = true
		if t.SharedAt.Before(f.Config.Epoch) || t.SharedAt.After(horizonEnd) {
			return fmt.Errorf("record %d: share time %v outside the window", i, t.SharedAt)
		}
		var post world.PostStatus
		if probe {
			var err error
			if post, err = w.Platform.LookupPost(t.Platform, t.PostID); err != nil {
				return fmt.Errorf("record %d: unknown platform %q", i, t.Platform)
			}
			if !post.Exists {
				return fmt.Errorf("record %d: post %q not on %s", i, t.PostID, t.Platform)
			}
			if info, err := w.Intel.Resolve(t.URL); err != nil || !info.Hosted {
				return fmt.Errorf("record %d: site %q not hosted", i, t.URL)
			}
		}
		// Event ordering: nothing happens before the share.
		for name, v := range r.Blocklist {
			if v.Detected && v.At.Before(t.SharedAt) {
				return fmt.Errorf("record %d: %s listed before share", i, name)
			}
		}
		for j, d := range r.VTDetections {
			if d.Before(t.SharedAt) {
				return fmt.Errorf("record %d: VT detection before share", i)
			}
			if j > 0 && d.Before(r.VTDetections[j-1]) {
				return fmt.Errorf("record %d: VT detections unsorted", i)
			}
		}
		if r.PlatformRemoved {
			if r.PlatformRemovedAt.Before(t.SharedAt) {
				return fmt.Errorf("record %d: platform removal before share", i)
			}
			if probe && (!post.Removed || !post.RemovedAt.Equal(r.PlatformRemovedAt)) {
				return fmt.Errorf("record %d: platform removal not reflected on the post", i)
			}
		}
		if r.HostRemoved && r.HostRemovedAt.Before(t.SharedAt) {
			return fmt.Errorf("record %d: host removal before share", i)
		}
		// FWB/self-hosted exclusivity of certificates (§3).
		if t.IsFWB() && t.InCTLog {
			return fmt.Errorf("record %d: FWB site visible in CT log", i)
		}
		// §3: noindex pages cannot be search-indexed.
		if t.Noindex && t.SearchIndexed {
			return fmt.Errorf("record %d: noindex page marked indexed", i)
		}
	}
	return nil
}
