package main

import (
	"math"
	"runtime"
	"time"

	"freephish/internal/core"
	"freephish/internal/world"
)

// trainCorpus is the effective ground-truth corpus per class every workload
// trains on: the paper's 4,656 pages scaled by 0.02, the headline shape.
// Holding it fixed keeps setup_s comparable across workloads.
const trainCorpus = 93

// The dense workloads share one input shape so their study digests must
// match: ~3 fresh posts per 10-minute poll cycle for a simulated week.
const (
	denseScale = 0.03
	denseDays  = 7
)

// workload is one input shape of the benchmark. Why each exists is in
// README.md.
type workload struct {
	name    string
	scale   float64
	days    int
	backend string
	shards  int
	// reference, when set, names the workload with the same inputs whose
	// study digest this one must reproduce byte for byte.
	reference string
}

// workloads are the ones BENCHMARK.json declares, in its order.
var workloads = []workload{
	{name: "sparse-inproc", scale: 0.02, days: 182, backend: core.BackendInproc},
	{name: "dense-inproc", scale: denseScale, days: denseDays, backend: core.BackendInproc, reference: "dense-http"},
	{name: "dense-shards2", scale: denseScale, days: denseDays, backend: core.BackendInproc, shards: 2, reference: "dense-inproc"},
}

// denseHTTP runs only by hand and as dense-inproc's digest reference. On a
// shared 2-vCPU VM its wall time rose ~30% for minutes at a time while its
// CPU time did not (every loopback round trip waits on the peer goroutine),
// spreading study_s by 0.26 across ten seeds: wider than any bound
// BENCHMARK.json may set.
var denseHTTP = workload{name: "dense-http", scale: denseScale, days: denseDays, backend: core.BackendHTTP, reference: "dense-inproc"}

// allWorkloads is what --workload all runs.
var allWorkloads = append(append([]workload(nil), workloads...), denseHTTP)

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config builds the study configuration for one seed. Cascade, journal,
// chaos and the monitor stay off: chaos latency would measure sleeping.
func (w workload) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = w.scale
	cfg.Duration = time.Duration(w.days) * 24 * time.Hour
	// core truncates TrainPerClass·Scale, so aim half a page above the
	// target to land on it exactly.
	cfg.TrainPerClass = int(math.Round((trainCorpus + 0.5) / w.scale))
	cfg.Backend = w.backend
	cfg.Shards = w.shards
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// scaled mirrors core's population scaling (at least one of each).
func scaled(cfg core.Config, n int) int {
	v := int(float64(n) * cfg.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// postingPlan is the posting schedule core.Run lays out for cfg, rebuilt
// so layer replays can run the same inputs on a fresh world.
func postingPlan(cfg core.Config) world.PostingPlan {
	return world.PostingPlan{
		FWBTwitter:     scaled(cfg, cfg.FWBTwitter),
		FWBFacebook:    scaled(cfg, cfg.FWBFacebook),
		SelfTwitter:    scaled(cfg, cfg.SelfTwitter),
		SelfFacebook:   scaled(cfg, cfg.SelfFacebook),
		BenignTwitter:  scaled(cfg, int(float64(cfg.FWBTwitter)*cfg.BenignPerPhish)),
		BenignFacebook: scaled(cfg, int(float64(cfg.FWBFacebook)*cfg.BenignPerPhish)),
		Duration:       cfg.Duration,
		GrowthExponent: cfg.GrowthExponent,
		ReshareRate:    cfg.ReshareRate,
	}
}

// trainSize is the per-class corpus core.Train generates for cfg.
func trainSize(cfg core.Config) int {
	n := scaled(cfg, cfg.TrainPerClass)
	if n < 40 {
		n = 40
	}
	return n
}
