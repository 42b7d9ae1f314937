package freephish

// The public API façade. Downstream users import "freephish" and get the
// paper's three capabilities without reaching into internal packages:
//
//   - Detector: classify a (URL, HTML) page as FWB phishing.
//   - Study: run the six-month measurement study and read its results.
//   - Blocker: the web-extension-equivalent URL checker for proxies.
//
// Everything here is a thin, stable wrapper over the internal
// implementation; see README.md for the architecture.

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/baselines"
	"freephish/internal/core"
	"freephish/internal/faults"
	"freephish/internal/features"
	"freephish/internal/fwb"
	"freephish/internal/proxy"
	"freephish/internal/urlx"
)

// Page is one captured website: its URL and HTML source.
type Page struct {
	URL  string
	HTML string
}

// Label marks a training page as phishing or benign.
type Label int

// Training labels.
const (
	Benign   Label = 0
	Phishing Label = 1
)

// Sample is one labeled training page.
type Sample struct {
	Page  Page
	Label Label
}

// Detector classifies FWB-hosted pages with the paper's augmented
// two-layer stacking model (Section 4.2). Construct with NewDetector,
// train with Train or TrainSynthetic, then call Score or Classify.
type Detector struct {
	model *baselines.StackDetector
	seed  int64
}

// NewDetector returns an untrained detector.
func NewDetector(seed int64) *Detector {
	return &Detector{model: baselines.NewFreePhishModel(seed), seed: seed}
}

// SetParallelism bounds how many workers Train and TrainSynthetic may use
// for the stacked model's k-fold × base-learner fits; 0 means one worker
// per CPU. The trained model is bit-identical at every setting.
func (d *Detector) SetParallelism(n int) { d.model.SetParallelism(n) }

// Train fits the detector on labeled pages.
func (d *Detector) Train(samples []Sample) error {
	conv := make([]baselines.LabeledPage, len(samples))
	for i, s := range samples {
		conv[i] = baselines.LabeledPage{
			Page:  features.Page{URL: s.Page.URL, HTML: s.Page.HTML},
			Label: int(s.Label),
		}
	}
	return d.model.Train(conv)
}

// TrainSynthetic fits the detector on a generated ground-truth corpus of
// pairsPerClass phishing and benign FWB sites — the turnkey path when no
// labeled corpus is available.
func (d *Detector) TrainSynthetic(pairsPerClass int) error {
	if pairsPerClass < 20 {
		pairsPerClass = 20
	}
	epoch := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	return d.model.Train(baselines.SyntheticPairs(d.seed, pairsPerClass, epoch))
}

// Score returns P(phishing) for the page.
func (d *Detector) Score(p Page) (float64, error) {
	return d.model.Score(features.Page{URL: p.URL, HTML: p.HTML})
}

// Classify thresholds Score at 0.5.
func (d *Detector) Classify(p Page) (bool, error) {
	s, err := d.Score(p)
	return s >= 0.5, err
}

// IsFWBHosted reports whether the URL is hosted on one of the 17 free
// website building services the paper studies, and which one.
func IsFWBHosted(rawURL string) (service string, ok bool) {
	u, err := urlx.Parse(rawURL)
	if err != nil {
		return "", false
	}
	if svc := fwb.Identify(u.Host, u.Path); svc != nil {
		return svc.Name, true
	}
	return "", false
}

// FWBServices returns the display names of the 17 studied services.
func FWBServices() []string {
	all := fwb.All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// StudyConfig parameterizes a measurement study run.
type StudyConfig struct {
	// Seed makes the whole study reproducible. Default 1.
	Seed int64
	// Scale in (0, 1] shrinks the paper's 62,810-URL populations. Default
	// 0.02 (≈1,250 URLs, seconds of wall-clock).
	Scale float64
	// TrainPerClass is the classifier's ground-truth size. Default scaled
	// from the paper's 4,656.
	TrainPerClass int
	// Workers bounds the study pipeline's probe pool and the trainers'
	// parallelism; 0 means one worker per CPU. Results are bit-identical
	// at every setting — parallelism only trades wall-clock for cores.
	Workers int
	// QueueDepth bounds the streaming pipeline's per-stage queues and its
	// reorder window, so per-cycle memory is O(Workers + QueueDepth) and a
	// stalled fetch backpressures the stream instead of buffering it; 0
	// picks the engine default. Like Workers, results are bit-identical at
	// every setting.
	QueueDepth int
	// Backend selects how the pipeline reaches the simulated world:
	// "inproc" (the default) binds it directly, "http" serves every
	// component on real loopback listeners and goes through the wire. The
	// resulting study is bit-identical either way.
	Backend string
	// Faults selects a chaos profile injected into the world boundary:
	// "" / "off" disable injection, "default" / "on" enable the standard
	// soak profile, and a comma-separated k=v spec tunes individual fault
	// rates (see the -faults flag documentation). The unified retry layer
	// absorbs the default profile completely — the study output is
	// byte-identical to a fault-free run.
	Faults string
	// Journal enables per-URL lifecycle tracing: every observed URL's
	// transitions (posted → observed-in-CT → polled → fetched → classified
	// → reported → takedown/re-check) are recorded and retrievable with
	// StudyResult.WriteJournal. The journal is deterministic: byte-
	// identical across Workers, QueueDepth, Backend, and Faults settings.
	Journal bool
	// Cascade selects the tiered classification cascade: "" / "off"
	// disable it, "on" / "default" enable the calibrated thresholds, and
	// an explicit "benignBelow,phishAbove" pair tunes the confident band.
	// With the cascade on, a fetch-free URL-lexical triage stage runs
	// ahead of fetch and confidently scored URLs short-circuit with a
	// verdict — they are never snapshotted. For any fixed threshold pair
	// the study keeps the same determinism contract as every other knob;
	// the degenerate pair "0,1" reproduces the cascade-off study exactly.
	Cascade string
	// Shards, when > 1, splits the study across N deterministic
	// sub-stream shards, each running its own pipeline against its own
	// simulated world; the shard results merge into records, journal,
	// and stats byte-identical to a 1-shard run. 0 and 1 run the study
	// in a single pipeline.
	Shards int
	// ShardWorkers lists remote shard-worker endpoints ("host:port",
	// serving the freephish-worker protocol). When set alongside Shards,
	// shards dispatch to the workers round-robin behind a per-endpoint
	// circuit breaker, falling back to in-process execution when no
	// worker is reachable. Placement never changes the study's bytes.
	ShardWorkers []string
	// Progress, when set, is invoked after every streaming poll cycle —
	// the hook by which long study runs narrate themselves.
	Progress func(Progress)
	// Logger, when set, receives structured "poll cycle" slog events at
	// roughly one-simulated-day granularity.
	Logger *slog.Logger
}

// Progress is one poll-cycle progress report from a running study.
type Progress struct {
	// SimTime is the virtual clock; Frac is the fraction of the
	// measurement window elapsed, in [0, 1].
	SimTime time.Time
	Frac    float64
	// Wall is real time elapsed since the run started.
	Wall time.Duration
	// Cumulative pipeline counters.
	Polls, PostsSeen, URLsScanned, Flagged, Reports, Records int
}

// StudyResult exposes the measurement study's headline artifacts plus the
// renderers for every table and figure.
type StudyResult struct {
	study *analysis.Study
	fp    *core.FreePhish
}

// RunStudy executes the six-month measurement study (Sections 5.1–5.5).
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	c := core.DefaultConfig()
	if cfg.Seed != 0 {
		c.Seed = cfg.Seed
	}
	c.Scale = 0.02
	if cfg.Scale > 0 {
		c.Scale = cfg.Scale
	}
	if cfg.TrainPerClass > 0 {
		c.TrainPerClass = cfg.TrainPerClass
	}
	c.Workers = cfg.Workers
	c.QueueDepth = cfg.QueueDepth
	c.Backend = cfg.Backend
	c.Shards = cfg.Shards
	c.ShardWorkers = cfg.ShardWorkers
	prof, err := faults.ParseProfile(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("freephish: bad fault profile: %w", err)
	}
	c.Faults = prof
	c.Journal = cfg.Journal
	c.CascadeBenignBelow, c.CascadePhishAbove, c.CascadeOn, err = baselines.ParseCascadeThresholds(cfg.Cascade)
	if err != nil {
		return nil, fmt.Errorf("freephish: bad cascade spec: %w", err)
	}
	if cfg.Progress != nil {
		hook := cfg.Progress
		c.Progress = func(ev core.ProgressEvent) {
			hook(Progress{
				SimTime: ev.SimTime, Frac: ev.Frac, Wall: ev.Wall,
				Polls: ev.Polls, PostsSeen: ev.PostsSeen, URLsScanned: ev.URLsScanned,
				Flagged: ev.Flagged, Reports: ev.Reports, Records: ev.Records,
			})
		}
	}
	c.Logger = cfg.Logger
	fp := core.New(c)
	study, err := fp.Run()
	if err != nil {
		return nil, fmt.Errorf("freephish: study failed: %w", err)
	}
	return &StudyResult{study: study, fp: fp}, nil
}

// URLCount reports how many URLs came under longitudinal observation.
func (r *StudyResult) URLCount() int { return len(r.study.Records) }

// WriteMetrics writes the run's full metrics registry — poller, fetcher,
// classifier, reporter, and monitor families — in the Prometheus text
// exposition format.
func (r *StudyResult) WriteMetrics(w io.Writer) error {
	return r.fp.Metrics.Registry.WritePrometheus(w)
}

// WriteJournal writes the run's per-URL lifecycle journal as JSONL: one
// event per line, in canonical order, byte-identical for a given seed at
// every concurrency and backend setting. It errors unless the study ran
// with StudyConfig.Journal enabled.
func (r *StudyResult) WriteJournal(w io.Writer) error {
	if r.fp.Metrics.Journal == nil {
		return fmt.Errorf("freephish: study ran without StudyConfig.Journal")
	}
	return r.fp.Metrics.Journal.WriteJSONL(w)
}

// StageTiming summarizes one pipeline stage of the completed run in both
// time domains: wall-clock cost and placement in the simulated window.
type StageTiming struct {
	Stage   string
	Count   uint64
	Errors  uint64
	Wall    time.Duration
	AvgWall time.Duration
	MaxWall time.Duration
	// SimSpan is the virtual-time window the stage's work covered;
	// PerSimHour is its throughput against the simulation clock.
	SimSpan    time.Duration
	PerSimHour float64
}

// StageTimings returns per-stage tracing aggregates, sorted by stage.
func (r *StudyResult) StageTimings() []StageTiming {
	stats := r.fp.Metrics.Tracer.Snapshot()
	out := make([]StageTiming, len(stats))
	for i, st := range stats {
		out[i] = StageTiming{
			Stage: st.Stage, Count: st.Count, Errors: st.Errors,
			Wall: st.Wall, AvgWall: st.AvgWall, MaxWall: st.MaxWall,
			SimSpan: st.SimSpan, PerSimHour: st.PerSimHour,
		}
	}
	return out
}

// CoverageRow is one entity's coverage and response-time summary.
type CoverageRow struct {
	Entity   string
	Cohort   string // "fwb" or "self-hosted"
	Coverage float64
	Median   time.Duration
}

// Coverage returns Table 3: every entity × cohort at the one-week horizon.
func (r *StudyResult) Coverage() []CoverageRow {
	var out []CoverageRow
	week := 7 * 24 * time.Hour
	for _, e := range []string{"PhishTank", "OpenPhish", "GSB", "eCrimeX", "platform", "host"} {
		fr := r.study.Coverage(e, analysis.FWBCohort, week)
		sr := r.study.Coverage(e, analysis.SelfHostedCohort, week)
		out = append(out,
			CoverageRow{Entity: e, Cohort: "fwb", Coverage: fr.Coverage, Median: fr.Median},
			CoverageRow{Entity: e, Cohort: "self-hosted", Coverage: sr.Coverage, Median: sr.Median})
	}
	return out
}

// RenderAll returns the full evaluation (every table and figure) as text.
func (r *StudyResult) RenderAll() string {
	return core.RenderStats(r.fp.Stats()) + "\n" +
		core.RenderSection3(r.study) + "\n" +
		core.RenderTable3(r.study) + "\n" +
		core.RenderFigure6(r.study) + "\n" +
		core.RenderFigure7(r.study) + "\n" +
		core.RenderFigure8(r.study) + "\n" +
		core.RenderTable4(r.study) + "\n" +
		core.RenderFigure9(r.study) + "\n" +
		core.RenderFigure5(r.study, 15) + "\n" +
		core.RenderSection55(r.study)
}

// Blocker is the user-protection checker behind the freephish-proxy binary
// (the paper's web extension). It combines a static blocklist with an
// optional live detector.
type Blocker struct {
	list *proxy.ListChecker
	live *proxy.LiveChecker
}

// NewBlocker returns a Blocker with an empty blocklist. Pass a trained
// detector and a fetch function to enable live classification of unknown
// FWB URLs; both may be nil for blocklist-only operation.
func NewBlocker(d *Detector, fetch func(url string) (Page, int, error)) *Blocker {
	b := &Blocker{list: &proxy.ListChecker{}}
	if d != nil && fetch != nil {
		b.live = proxy.NewLiveChecker(d.model, func(url string) (features.Page, int, error) {
			p, status, err := fetch(url)
			return features.Page{URL: p.URL, HTML: p.HTML}, status, err
		})
	}
	return b
}

// Block adds a URL to the static blocklist.
func (b *Blocker) Block(url string) { b.list.Add(url) }

// Check reports whether navigation to the URL should be blocked.
func (b *Blocker) Check(url string) (block bool, reason string) {
	if block, reason = b.list.Check(url); block {
		return block, reason
	}
	if b.live != nil {
		return b.live.Check(url)
	}
	return false, ""
}

// Save writes the trained detector to w as JSON, so the expensive stacking
// fit happens once and the model ships to consumers (e.g. the proxy).
func (d *Detector) Save(w io.Writer) error { return d.model.Save(w) }

// LoadDetector restores a detector previously written with Save,
// including its seed, so a restored detector's TrainSynthetic regenerates
// the same corpus the original would have.
func LoadDetector(r io.Reader) (*Detector, error) {
	m, err := baselines.LoadStackDetector(r)
	if err != nil {
		return nil, err
	}
	return &Detector{model: m, seed: m.Seed()}, nil
}
