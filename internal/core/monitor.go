package core

import (
	"net/http"
	"sort"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/obs"
	"freephish/internal/pipe"
)

// The active monitor reproduces §4.4's measurement mechanics: each flagged
// URL is re-checked at a fixed interval — a live HTTP probe of the site
// (404/410 ⇒ taken down) and lookups against every blocklist's API —
// until the one-week observation horizon. The paper polls every 10
// minutes; the monitor interval is configurable because a full-scale run
// at 10 minutes means ~63M probes. Observed transition times land within
// one interval of the scheduled event times, which the end-to-end tests
// assert — closing the loop between the closed-form assessments and what
// an external measurement would actually see.
//
// The monitor consumes only the Snapshotter and ThreatFeeds ports: on the
// inproc backend the feed lookups resolve directly against the feeds, on
// the http backend they go through each feed's lookup server. Either way
// the observations are identical — a lookup is read-only and the feeds'
// visibility rule (future-dated listings are hidden) lives in the feed.

// MonitorHorizon is how long each URL stays under observation.
const MonitorHorizon = 7 * 24 * time.Hour

// skewed applies the chaos injector's clock-skew fault to a timestamp
// the monitor is about to consume: a skewed endpoint reports event times
// shifted by a seeded, bounded offset (see faults.Injector.ClockSkew).
// With chaos off — or with the default profile, whose skew rate is
// zero — the timestamp passes through untouched.
func (f *FreePhish) skewed(endpoint, url string, at time.Time) time.Time {
	if f.injector == nil {
		return at
	}
	return at.Add(f.injector.ClockSkew(endpoint, url))
}

// scheduleMonitor registers rec for periodic re-checking, starting one
// interval after the classification instant.
func (f *FreePhish) scheduleMonitor(rec *analysis.Record) {
	f.monitorFrom(rec, f.Clock.Now().Add(f.Config.MonitorInterval))
}

// monitorFrom registers rec's periodic re-check schedule with its first
// tick at the absolute instant first. scheduleMonitor passes now+interval
// (the historical behavior); checkpoint resume passes the next tick of the
// original schedule (classification instant + k·interval), which is what
// reproduces the uninterrupted run's tick sequence exactly.
func (f *FreePhish) monitorFrom(rec *analysis.Record, first time.Time) {
	ob := f.State.StartObservation(rec.Target.URL)
	// The backends agree on the feed set but not its order (the http
	// client sorts, the sim keeps assessment order). The observations are
	// order-agnostic maps, but the journal's listed events are not — sort
	// so a tick's checks fan out identically on every backend.
	feedNames := append([]string(nil), f.world.Feeds.FeedNames()...)
	sort.Strings(feedNames)
	j := f.Metrics.Journal

	until := rec.Target.SharedAt.Add(MonitorHorizon)
	var stop func()
	stop = f.Clock.EveryAt(first, f.Config.MonitorInterval, until, "freephish.monitor", func(now time.Time) {
		sp := f.Metrics.Tracer.Start("monitor")
		ob.MarkProbe()
		f.Metrics.MonitorProbes.Inc()
		// Fan the tick's still-pending checks — the live HTTP probe (feed
		// "") plus one lookup per unlisted blocklist — through the run's
		// monitor graph: every check is a read-only port call, so they run
		// concurrently, while the Observation mutations happen in the
		// ordered pull, keeping the record byte-identical to the old
		// sequential loop at every (workers, queue-depth) setting. Monitor
		// ticks fire from the single-threaded clock and the pull is
		// ordered, so lifecycle events here keep the determinism contract.
		checks := make([]monitorCheck, 0, 1+len(feedNames))
		if ob.HostDownAt.IsZero() {
			checks = append(checks, monitorCheck{rec: rec})
		}
		for _, name := range feedNames {
			if _, seen := ob.Listings[name]; !seen {
				checks = append(checks, monitorCheck{rec: rec, feed: name})
			}
		}
		if j != nil {
			j.Record(rec.Target.URL, obs.EvRecheck, now, "checks", itoa(len(checks)))
		}
		done := true
		g := f.ensureGraphs()
		g.monitorIn.Push(checks)
		_ = pipe.Pull(g.monitorOut, len(checks), func(i int, hit bool) error {
			switch c := checks[i]; {
			case !hit:
				done = false // still up / not yet listed: keep observing
			case c.feed == "":
				at := f.skewed("monitor.probe", rec.Target.URL, now)
				ob.MarkHostDown(at)
				f.Metrics.MonitorHostDown.Inc()
				if j != nil {
					j.Record(rec.Target.URL, obs.EvHostDown, at)
				}
			default:
				at := f.skewed("feed."+c.feed, rec.Target.URL, now)
				ob.MarkListed(c.feed, at)
				f.Metrics.MonitorListings.With(c.feed).Inc()
				if j != nil {
					j.Record(rec.Target.URL, obs.EvListed, at, "entity", c.feed)
				}
			}
			return nil
		})
		sp.End()
		if done && stop != nil {
			stop() // everything observed: no further probes needed
		}
	})
}

// monitorCheck is one item of the monitor graph: a live probe of rec's
// site (feed "") or a lookup of rec's URL on one blocklist.
type monitorCheck struct {
	rec  *analysis.Record
	feed string
}

// runCheck is the monitor graph's check stage: it reports whether the
// site is down or the URL is listed. It issues only read-only port calls.
func (f *FreePhish) runCheck(c monitorCheck) bool {
	url := c.rec.Target.URL
	if c.feed == "" {
		_, status, err := f.world.Snap.Snapshot(url)
		return err == nil && status != http.StatusOK
	}
	listed, err := f.world.Feeds.Listed(c.feed, url)
	return err == nil && listed
}
