package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/core"
	"freephish/internal/obs"
	"freephish/internal/state"
)

// studyResult is what one child process reports: one setup, then one or
// more studies run on the trained models.
type studyResult struct {
	SetupS  float64    `json:"setup_s"`
	Studies []studyRun `json:"studies"`
	F1      float64    `json:"f1"`
	Digest  string     `json:"digest"`
	// Attempted counts streamed URLs over all studies; Failed counts
	// operations the retry layer gave up on.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Err       string `json:"err,omitempty"`
	// Layers holds the per-layer figures of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"-"`
}

// studyRun is what Run cost: wall time, CPU time, and heap allocation.
type studyRun struct {
	StudyS  float64 `json:"study_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocB  uint64  `json:"alloc_bytes"`
	Mallocs uint64  `json:"mallocs"`
}

// studyDigest is the SHA-256 over the study's canonical JSONL records
// followed by its JSON-encoded Stats: the bytes every run shape of one seed
// must reproduce.
func studyDigest(study *analysis.Study, st core.Stats) (string, error) {
	var buf bytes.Buffer
	if err := study.WriteJSONL(&buf); err != nil {
		return "", fmt.Errorf("digest: write records: %w", err)
	}
	stats, err := json.Marshal(st)
	if err != nil {
		return "", fmt.Errorf("digest: encode stats: %w", err)
	}
	buf.Write(stats)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// zeroDayF1 is the classifier's F1 on fresh URLs from the run's Stats.
func zeroDayF1(st core.Stats) float64 {
	d := 2*st.TruePositives + st.FalsePositives + st.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(2*st.TruePositives) / float64(d)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cycleLog records the wall time of every Progress callback; cycle latency
// is the gap between consecutive callbacks.
type cycleLog struct {
	at    []time.Time
	posts []int
}

func (c *cycleLog) observe(ev core.ProgressEvent) {
	c.at = append(c.at, time.Now())
	c.posts = append(c.posts, ev.PostsSeen)
}

// runStudy sets w up once — world build and both model fits, timed as
// setup — and then runs fresh studies on the trained models until budget,
// counted from the start of setup, is spent (at least one), checking each. traced runs a single study with
// the Progress hook and collects the per-layer figures the program's own
// instruments expose.
func runStudy(w workload, seed int64, traced bool, budget time.Duration) studyResult {
	var res studyResult
	cfg := w.config(seed)
	t0 := time.Now()
	trained := core.New(cfg)
	if err := trained.Train(); err != nil {
		res.Err = err.Error()
		return res
	}
	res.SetupS = time.Since(t0).Seconds()
	deadline := t0.Add(budget)
	for i := 0; i == 0 || (!traced && time.Now().Before(deadline)); i++ {
		if err := res.study(cfg, trained, traced); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	return res
}

// study runs one study on a fresh framework that borrows trained's models,
// so Run neither trains nor sees the set-up heap.
func (res *studyResult) study(cfg core.Config, trained *core.FreePhish, traced bool) error {
	reg := obs.NewRegistry()
	cfg.Registry = reg
	cycles := &cycleLog{}
	if traced {
		n := int(cfg.Duration/cfg.PollInterval) + 1
		cycles.at = make([]time.Time, 0, n)
		cycles.posts = make([]int, 0, n)
		cfg.Progress = cycles.observe
	}
	fp := core.New(cfg)
	defer fp.Close()
	fp.Model, fp.BaseModel = trained.Model, trained.BaseModel

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t := time.Now()
	study, err := fp.Run()
	run := studyRun{StudyS: time.Since(t).Seconds(), CPUS: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	run.AllocB, run.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	res.Studies = append(res.Studies, run)

	st := fp.Stats()
	res.Attempted += st.PostsSeen
	res.Failed += int(sumFamily(reg, "freephish_retry_giveups_total"))
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if err := fp.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	digest, err := studyDigest(study, st)
	if err != nil {
		return err
	}
	if res.Digest != "" && digest != res.Digest {
		return fmt.Errorf("study digest %s != %s on the same seed", digest, res.Digest)
	}
	res.Digest, res.F1 = digest, zeroDayF1(st)
	if traced {
		res.Layers = coreLayers(fp, reg, cycles, run.StudyS)
		for k, v := range stateLayers(fp.State) {
			res.Layers[k] = v
		}
	}
	return nil
}

// sumFamily totals every series of a counter family in reg.
func sumFamily(reg *obs.Registry, name string) float64 {
	var v float64
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// coreLayers reads the core tracer, the benchmark-owned registry and the
// cycle log of a traced run.
func coreLayers(fp *core.FreePhish, reg *obs.Registry, cycles *cycleLog, studyS float64) map[string]float64 {
	wall := map[string]float64{}
	var polls uint64
	for _, st := range fp.Metrics.Tracer.Snapshot() {
		wall[st.Stage] = st.Wall.Seconds()
		if st.Stage == "poll" {
			polls = st.Count
		}
	}
	children := wall["fetch"] + wall["classify"] + wall["assess"] + wall["report"]
	l := map[string]float64{
		"core.poll.n":           float64(polls),
		"core.poll.busy_s":      wall["poll"],
		"core.stage.fetch_s":    wall["fetch"],
		"core.stage.classify_s": wall["classify"],
		"core.stage.assess_s":   wall["assess"],
		"core.stage.report_s":   wall["report"],
		// fetch and classify run on worker pools that overlap each other and
		// the ordered apply, so subtracting their summed time bounds the
		// cycle's own time from below.
		"core.cycle_self_s":   max(0, wall["poll"]-children),
		"core.outside_poll_s": studyS - wall["poll"],
	}
	var gaps []float64
	empty := 0
	for i := range cycles.at {
		prevPosts := 0
		if i > 0 {
			gaps = append(gaps, float64(cycles.at[i].Sub(cycles.at[i-1]))/1e3)
			prevPosts = cycles.posts[i-1]
		}
		if cycles.posts[i] == prevPosts {
			empty++
		}
	}
	cyc := summarize(gaps, 0.99)
	l["core.cycle_p50_us"], l["core.cycle_p99_us"] = cyc.P50, cyc.Tail
	if len(cycles.at) > 0 {
		l["core.empty_cycle_ratio"] = float64(empty) / float64(len(cycles.at))
	}
	for _, stage := range []string{"fetch", "classify"} {
		// Registering an existing family returns it; pipe owns the schema.
		h := reg.HistogramVec("freephish_pipe_stage_seconds", "", nil, "pipe", "stage").With("poll", stage)
		l["pipe.stage."+stage+"_p99_ms"] = h.Quantile(tailQuantile(int(h.Count()), 0.99)) * 1e3
		if stage == "fetch" {
			l["pipe.stage.n"] = float64(h.Count())
		}
	}
	l["retry.retries"] = sumFamily(reg, "freephish_retries_total")
	l["retry.giveups"] = sumFamily(reg, "freephish_retry_giveups_total")
	return l
}

// stateLayers times the state layer on the finished study: the canonical
// record sort, a two-way Merge and the wire size of the snapshot.
func stateLayers(st *state.StudyState) map[string]float64 {
	snap := st.Snapshot(nil)
	l := map[string]float64{}
	if wire, err := state.EncodeSnapshotWire(snap); err == nil {
		l["state.snapshot_kb"] = float64(len(wire)) / 1024
	}
	// Split the study the way two shards would hold it: disjoint record
	// and seen sets.
	halves := [2]*state.Snapshot{{}, {}}
	for i, r := range snap.Records {
		halves[i%2].Records = append(halves[i%2].Records, r)
	}
	for i, u := range snap.Seen {
		halves[i%2].Seen = append(halves[i%2].Seen, u)
	}
	halves[0].Stats = snap.Stats
	var sortMs, mergeMs []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		state.Merge(halves[0], halves[1])
		mergeMs = append(mergeMs, float64(time.Since(t))/1e6)

		rev := state.New()
		for i := len(snap.Records) - 1; i >= 0; i-- {
			rev.AddRecord(snap.Records[i])
		}
		t = time.Now()
		rev.SortRecords()
		sortMs = append(sortMs, float64(time.Since(t))/1e6)
	}
	l["state.sort_ms"] = median(sortMs)
	l["state.merge_ms"] = median(mergeMs)
	return l
}
