package core

import (
	"context"
	"log/slog"
	"time"

	"freephish/internal/obs"
	"freephish/internal/threat"
)

// Metrics bundles every instrument the pipeline exports, all registered
// on one obs.Registry so a single /metrics scrape covers the whole
// framework: poller, fetcher, classifier, reporter, and the §4.4 active
// monitor. Families are registered up front (and therefore exported at
// zero) so scrapers see the complete schema from the first cycle.
type Metrics struct {
	Registry *obs.Registry
	// Tracer aggregates per-stage spans (poll, fetch, classify, assess,
	// report, monitor) in wall-clock and simulation time.
	Tracer *obs.Tracer
	// Journal is the per-URL lifecycle trace, non-nil only when
	// Config.Journal is set. Lifecycle events are recorded from the
	// ordered apply/monitor points; retry, breaker, fault, and pipe-stage
	// hooks below feed its ops ring for the dashboard.
	Journal *obs.Journal

	// Streaming module (§4.1).
	Polls        *obs.Counter
	PollSkipped  *obs.Counter
	PollFailed   *obs.Counter
	PostsSeen    *obs.CounterVec // platform
	PostsDup     *obs.CounterVec // platform
	URLsStreamed *obs.Counter
	URLsDeduped  *obs.Counter

	// Pre-processing module: the snapshot crawler.
	FetchTotal   *obs.CounterVec // status
	FetchSeconds *obs.Histogram
	FetchErrors  *obs.Counter

	// Classification module (§4.2).
	ClassifySeconds *obs.HistogramVec // cohort
	ExtractSeconds  *obs.Histogram
	InferSeconds    *obs.Histogram
	Scores          *obs.HistogramVec // cohort
	Decisions       *obs.CounterVec   // cohort, decision

	// Reporting module (§4.3).
	Reports    *obs.CounterVec // recipient
	ReportAcks *obs.CounterVec // recipient
	Takedowns  *obs.CounterVec // via

	// Active monitor (§4.4).
	MonitorProbes   *obs.Counter
	MonitorHostDown *obs.Counter
	MonitorListings *obs.CounterVec // entity

	// Resilience: the unified retry policy and the chaos injector.
	Retries        *obs.CounterVec // key
	RetryGiveUps   *obs.CounterVec // key
	RetryBackoff   *obs.Counter
	BreakerEvents  *obs.CounterVec // key, transition
	FaultsInjected *obs.CounterVec // kind

	// Tiered classification cascade (triage stage).
	CascadeTriaged        *obs.CounterVec // tier
	CascadeFetchesAvoided *obs.Counter

	// Sharded execution: coordinator-level failover and dispatch.
	ShardRetries    *obs.CounterVec // shard
	ShardDispatched *obs.CounterVec // runner
	ShardAdopted    *obs.CounterVec // shard
	WorkerFailures  *obs.CounterVec // endpoint

	// Study-level progress.
	Records *obs.Counter
}

// newMetrics registers the full FreePhish metric schema on reg. simNow
// feeds the sim-time gauges and the tracer; epoch anchors the
// sim-progress gauge.
func newMetrics(reg *obs.Registry, simNow func() time.Time, epoch time.Time) *Metrics {
	m := &Metrics{
		Registry: reg,
		Tracer:   obs.NewTracer(reg, "freephish", simNow),

		Polls: reg.Counter("freephish_polls_total",
			"Streaming-module poll cycles executed."),
		PollSkipped: reg.Counter("freephish_poll_skipped_total",
			"Platform polls skipped by the API rate limiter."),
		PollFailed: reg.Counter("freephish_poll_failed_total",
			"Platform polls skipped because the API failed."),
		PostsSeen: reg.CounterVec("freephish_posts_seen_total",
			"Social posts returned by the platform APIs.", "platform"),
		PostsDup: reg.CounterVec("freephish_posts_dup_total",
			"Posts already seen in an earlier poll (post-level dedup hits).", "platform"),
		URLsStreamed: reg.Counter("freephish_urls_streamed_total",
			"URLs extracted from streamed posts."),
		URLsDeduped: reg.Counter("freephish_urls_dedup_total",
			"Streamed URLs dropped as re-shares of an already-processed URL."),

		FetchTotal: reg.CounterVec("freephish_fetch_total",
			"Website snapshots by final HTTP status (0 = transport failure).", "status"),
		FetchSeconds: reg.Histogram("freephish_fetch_seconds",
			"Snapshot latency including retries.", nil),
		FetchErrors: reg.Counter("freephish_fetch_errors_total",
			"Snapshots that failed every attempt."),

		ClassifySeconds: reg.HistogramVec("freephish_classify_seconds",
			"End-to-end classification latency (feature extraction + inference).", nil, "cohort"),
		ExtractSeconds: reg.Histogram("freephish_extract_seconds",
			"Feature-extraction latency per classified page.", nil),
		InferSeconds: reg.Histogram("freephish_infer_seconds",
			"Stacked-model inference latency per classified page.", nil),
		Scores: reg.HistogramVec("freephish_classifier_score",
			"Classifier P(phishing) distribution.", obs.ScoreBuckets, "cohort"),
		Decisions: reg.CounterVec("freephish_classified_total",
			"Classification decisions against ground truth.", "cohort", "decision"),

		Reports: reg.CounterVec("freephish_reports_total",
			"Disclosure reports filed, by recipient.", "recipient"),
		ReportAcks: reg.CounterVec("freephish_report_acks_total",
			"Reports acknowledged by the recipient.", "recipient"),
		Takedowns: reg.CounterVec("freephish_takedowns_total",
			"Site removals recorded by the study, by takedown path.", "via"),

		MonitorProbes: reg.Counter("freephish_monitor_probes_total",
			"Active-monitor HTTP re-probes of flagged URLs (§4.4)."),
		MonitorHostDown: reg.Counter("freephish_monitor_host_down_total",
			"Monitored URLs first observed down by an HTTP probe."),
		MonitorListings: reg.CounterVec("freephish_monitor_listings_total",
			"Blocklist-feed listings first observed by the monitor.", "entity"),

		Retries: reg.CounterVec("freephish_retries_total",
			"Attempts re-issued by the unified retry policy, by endpoint key.", "key"),
		RetryGiveUps: reg.CounterVec("freephish_retry_giveups_total",
			"Operations that exhausted the retry budget, by endpoint key.", "key"),
		RetryBackoff: reg.Counter("freephish_retry_backoff_seconds_total",
			"Cumulative backoff delay scheduled between retry attempts."),
		BreakerEvents: reg.CounterVec("freephish_breaker_transitions_total",
			"Circuit-breaker state transitions, by endpoint key.", "key", "transition"),
		FaultsInjected: reg.CounterVec("freephish_faults_injected_total",
			"Chaos faults injected into the world boundary, by kind.", "kind"),

		CascadeTriaged: reg.CounterVec("freephish_cascade_triaged_total",
			"Fresh URLs triaged by the cascade's lexical tier, by verdict tier "+
				"(benign/phish short-circuit the fetch stage; full falls through).", "tier"),
		CascadeFetchesAvoided: reg.Counter("freephish_cascade_fetches_avoided_total",
			"Page fetches skipped because the lexical tier short-circuited the URL."),

		ShardRetries: reg.CounterVec("freephish_shard_retries_total",
			"Shard attempts the coordinator re-ran with a fresh child after a failure.", "shard"),
		ShardDispatched: reg.CounterVec("freephish_shard_dispatched_total",
			"Shard attempts handed to a runner, by runner name (local or worker endpoint).", "runner"),
		ShardAdopted: reg.CounterVec("freephish_shard_adopted_total",
			"Failover attempts that resumed from a dead runner's last streamed checkpoint.", "shard"),
		WorkerFailures: reg.CounterVec("freephish_shard_worker_failures_total",
			"Remote shard dispatches that failed at the transport, by worker endpoint.", "endpoint"),

		Records: reg.Counter("freephish_study_records_total",
			"URLs admitted to longitudinal observation."),
	}
	reg.GaugeFunc("freephish_cascade_short_circuit_ratio",
		"Fraction of triaged URLs the lexical tier resolved without a fetch.",
		func() float64 {
			short := m.CascadeTriaged.With("benign").Value() + m.CascadeTriaged.With("phish").Value()
			total := short + m.CascadeTriaged.With("full").Value()
			if total == 0 {
				return 0
			}
			return short / total
		})
	reg.GaugeFunc("freephish_sim_time_seconds",
		"Virtual seconds elapsed since the study epoch.", func() float64 {
			if simNow == nil {
				return 0
			}
			return simNow().Sub(epoch).Seconds()
		})
	return m
}

// wireMetrics connects the constructed pipeline components (fetcher,
// poller, retry policy, chaos injector) to the instruments. Called from
// startServers once the components exist; the classify stage times
// extraction and inference itself.
func (f *FreePhish) wireMetrics() {
	m := f.Metrics
	f.fetcher.Observe = func(status, attempts int, wall time.Duration, err error) {
		m.FetchTotal.With(statusLabel(status)).Inc()
		m.FetchSeconds.Observe(wall.Seconds())
		if err != nil {
			m.FetchErrors.Inc()
		}
	}
	f.poller.Observe = func(platform threat.Platform, posts, dupPosts, urls int, skipped bool) {
		if skipped {
			m.PollSkipped.Inc()
			return
		}
		m.PostsSeen.With(string(platform)).Add(float64(posts))
		m.PostsDup.With(string(platform)).Add(float64(dupPosts))
		m.URLsStreamed.Add(float64(urls))
	}
	f.poller.ObserveFailure = func(platform threat.Platform, err error) {
		m.PollFailed.Inc()
	}
	// The ops hooks may capture the journal: it lives as long as the
	// framework, and a resume or merge rebuilds it in place.
	j := m.Journal
	if pol := f.retryPol; pol != nil {
		pol.OnRetry = func(key string, attempt int, delay time.Duration, err error) {
			m.Retries.With(key).Inc()
			m.RetryBackoff.Add(delay.Seconds())
			if j != nil {
				j.RecordOps("", obs.EvRetry,
					"key", key, "attempt", itoa(attempt), "err", err.Error())
			}
		}
		pol.OnGiveUp = func(key string, attempts int, err error) {
			m.RetryGiveUps.With(key).Inc()
			if j != nil {
				j.RecordOps("", obs.EvGiveUp,
					"key", key, "attempts", itoa(attempts), "err", err.Error())
			}
		}
		pol.OnBreaker = f.observeBreaker
	}
	if f.injector != nil {
		f.injector.Observe = func(kind, endpoint, key string) {
			m.FaultsInjected.With(kind).Inc()
			if j != nil {
				j.RecordOps("", obs.EvFault,
					"kind", kind, "endpoint", endpoint, "key", key)
			}
		}
	}
	if f.poller.Limiter != nil {
		lim := f.poller.Limiter
		f.Metrics.Registry.GaugeFunc("freephish_ratelimit_throttled_total",
			"Poller API calls denied by the quota limiter.", func() float64 {
				return float64(lim.Throttled())
			})
		f.Metrics.Registry.GaugeFunc("freephish_ratelimit_wait_seconds_total",
			"Cumulative estimated wait imposed by quota denials.", func() float64 {
				return lim.WaitTotal().Seconds()
			})
		f.Metrics.Registry.GaugeFunc("freephish_ratelimit_tokens",
			"Tokens currently available in the poller's quota bucket.", func() float64 {
				return lim.Tokens()
			})
	}
}

// observeBreaker counts a circuit breaker's transition and records it as
// an ops event. It observes the world-port breakers and, under keys
// prefixed "worker|", the shard dispatcher's per-worker ones.
func (f *FreePhish) observeBreaker(key string, open bool) {
	transition := "close"
	if open {
		transition = "open"
	}
	f.Metrics.BreakerEvents.With(key, transition).Inc()
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvBreaker, "key", key, "transition", transition)
	}
}

// statusLabel formats an HTTP status for the fetch counter without
// allocating for the common codes.
func statusLabel(status int) string {
	switch status {
	case 0:
		return "0"
	case 200:
		return "200"
	case 404:
		return "404"
	case 410:
		return "410"
	case 500:
		return "500"
	}
	return itoa(status)
}

func itoa(v int) string {
	if v < 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(buf[i:])
		}
	}
}

// ProgressEvent is one poll-cycle progress report, delivered to
// Config.Progress and (throttled) to Config.Logger.
type ProgressEvent struct {
	// SimTime is the virtual clock at the end of the cycle; Frac is the
	// fraction of the measurement window elapsed, in [0, 1].
	SimTime time.Time
	Frac    float64
	// Wall is real time elapsed since Run started.
	Wall time.Duration
	// Cumulative pipeline counters (mirrors of Stats).
	Polls, PostsSeen, URLsScanned int
	Flagged, Reports, Records     int
}

// observeProgress emits the per-cycle progress event and, once per
// simulated day of polls, a structured slog record.
func (f *FreePhish) observeProgress(now time.Time) {
	if f.Config.Progress == nil && f.Config.Logger == nil {
		return
	}
	st := f.State.Stats()
	ev := ProgressEvent{
		SimTime:     now,
		Wall:        time.Since(f.runStart),
		Polls:       st.Polls,
		PostsSeen:   st.PostsSeen,
		URLsScanned: st.URLsScanned,
		Flagged:     st.FlaggedFWB + st.FlaggedSelf,
		Reports:     st.ReportsSent,
		Records:     len(f.State.Records()),
	}
	if f.Config.Duration > 0 {
		ev.Frac = float64(now.Sub(f.Config.Epoch)) / float64(f.Config.Duration)
		if ev.Frac > 1 {
			ev.Frac = 1
		}
	}
	if f.Config.Progress != nil {
		f.Config.Progress(ev)
	}
	if f.Config.Logger != nil && st.Polls%f.Config.pollsPerDay() == 0 {
		f.Config.Logger.LogAttrs(context.Background(), slog.LevelInfo, "poll cycle",
			slog.Time("sim_time", now),
			slog.Float64("frac_done", ev.Frac),
			slog.Duration("wall", ev.Wall),
			slog.Int("polls", ev.Polls),
			slog.Int("posts_seen", ev.PostsSeen),
			slog.Int("urls_scanned", ev.URLsScanned),
			slog.Int("flagged", ev.Flagged),
			slog.Int("reports", ev.Reports),
			slog.Int("records", ev.Records),
		)
	}
}
