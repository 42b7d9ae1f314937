// Command freephish runs the full FreePhish reproduction study and prints
// every table and figure from the paper's evaluation:
//
//	freephish [-scale 0.05] [-seed 1] [-workers N] [-backend inproc|http] [-table2 600] [-skip-table2]
//	          [-checkpoint study.ckpt [-checkpoint-every N]] [-resume study.ckpt]
//	          [-shards N [-shard-workers host:port,...]]
//
// At -scale 1.0 it streams the paper's full populations (31,405 FWB +
// 31,405 self-hosted URLs over six virtual months); the default scale keeps
// a laptop run under a minute while preserving every distributional shape.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/core"
	"freephish/internal/faults"
	"freephish/internal/obs"
	"freephish/internal/simclock"
	"freephish/internal/state"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.05, "population scale in (0,1]; 1.0 = the paper's 62,810 URLs")
		seed       = flag.Int64("seed", 1, "run seed (all results are reproducible per seed)")
		table2N    = flag.Int("table2", 800, "ground-truth pairs for the Table 2 model bake-off")
		skipTable2 = flag.Bool("skip-table2", false, "skip the Table 2 model comparison (the slowest step)")
		table1N    = flag.Int("table1", 15, "site pairs per FWB for Table 1")
		workers    = flag.Int("workers", 0, "pipeline/training worker pool size; 0 = one per CPU (results identical at every setting)")
		queueDepth = flag.Int("queue-depth", 0, "streaming pipeline per-stage queue and reorder-window bound; 0 = engine default (results identical at every setting)")
		backend    = flag.String("backend", core.BackendInproc, "world backend: inproc (in-process dispatch) or http (real loopback servers); results identical either way")
		shards     = flag.Int("shards", 1, "split the study across N deterministic sub-stream shards, each with its own pipeline and world; records, journal, and stats are byte-identical at every N")
		shardWk    = flag.String("shard-workers", "", "with -shards, comma-separated freephish-worker endpoints (host:port,...) to dispatch shards to; a dead worker fails over — to a peer or a local child — by adopting the shard's last streamed checkpoint, byte-identically")
		faultSpec  = flag.String("faults", "", "chaos profile injected into the world boundary: off, default, or k=v spec (latency=0.1,5xx=0.2,reset=0.05,truncate=0.02,malform=0.02,burst=2,blackout=web:24h:6h); the retry layer absorbs the default profile with byte-identical results")
		cascade    = flag.String("cascade", "", "tiered classification cascade: off, on (calibrated thresholds), or benignBelow,phishAbove — a fetch-free URL-lexical triage stage short-circuits confident URLs ahead of fetch; 0,1 reproduces the cascade-off study exactly")
		ckptPath   = flag.String("checkpoint", "", "write a resumable checkpoint to this file (atomically, temp+rename) at ordered-apply boundaries during the study")
		ckptEvery  = flag.Int("checkpoint-every", 144, "with -checkpoint, minimum poll intervals of virtual time between checkpoints (the default is one virtual day at the default 10-minute poll interval)")
		resumePath = flag.String("resume", "", "resume the study from this checkpoint file (must match the run's seed/scale/window/faults configuration; resumes byte-identically)")
		outPath    = flag.String("out", "", "write the study's records as JSONL to this file")
		journal    = flag.String("journal", "", "write the per-URL lifecycle journal as JSONL to this file (enables tracing)")
		opsAddr    = flag.String("ops", "", "serve /metrics, /healthz, /version, /debug/vars and /debug/pprof on this address while the study runs")
		dash       = flag.Bool("dash", false, "with -ops, serve the live dashboard on /dash (enables lifecycle tracing)")
		linger     = flag.Bool("linger", false, "with -ops, keep serving the ops endpoints after the study completes")
	)
	flag.Parse()

	// The study's framework is assembled up front — before the ops listener
	// — so the dashboard can watch the same journal the run writes to.
	// Training and execution still happen later, in their printed order.
	reg := obs.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.QueueDepth = *queueDepth
	cfg.Backend = *backend
	cfg.Shards = *shards
	if *shardWk != "" {
		cfg.ShardWorkers = strings.Split(*shardWk, ",")
	}
	cfg.Registry = reg
	cfg.Journal = *journal != "" || *dash
	prof, err := faults.ParseProfile(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Faults = prof
	cfg.CascadeBenignBelow, cfg.CascadePhishAbove, cfg.CascadeOn, err = baselines.ParseCascadeThresholds(*cascade)
	if err != nil {
		log.Fatal(err)
	}
	cfg.CheckpointPath = *ckptPath
	cfg.CheckpointEvery = *ckptEvery
	if *resumePath != "" {
		chk, err := state.ReadCheckpoint(*resumePath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Resume = chk
	}
	fp := core.New(cfg)

	// The ops listener scrapes the same registry the study writes to, so
	// `curl <ops>/metrics` mid-run shows the pipeline advancing live.
	info := obs.RegisterBuildInfo(reg, *seed)
	var studyDone atomic.Bool
	if *opsAddr != "" {
		opts := obs.OpsOptions{
			Healthz: func() error {
				if !*linger && studyDone.Load() {
					return fmt.Errorf("study complete")
				}
				return nil
			},
			Info: info,
		}
		if *dash {
			opts.Dash = &obs.Dash{
				Reg: reg, Journal: fp.Metrics.Journal,
				Title: "freephish study", Info: info,
			}
		}
		mux := obs.NewOps(reg, opts)
		go func() {
			srv := &http.Server{Addr: *opsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			log.Fatalf("ops listener: %v", srv.ListenAndServe())
		}()
		fmt.Printf("ops endpoints on http://%s (/metrics, /healthz, /version, /debug/vars, /debug/pprof", *opsAddr)
		if *dash {
			fmt.Print(", /dash")
		}
		fmt.Print(")\n\n")
	}

	fmt.Println("FreePhish reproduction study")
	fmt.Printf("seed=%d scale=%.3f\n\n", *seed, *scale)

	if *resumePath != "" {
		// The preamble studies (Figures 1/D1, the coder study, Tables 1-2)
		// are pure functions of the seed: the interrupted run already
		// printed them, so a resume goes straight to the measurement study.
		fmt.Printf("resuming from %s (checkpoint at %s, %d poll cycles done); skipping the seed-deterministic preamble studies\n\n",
			*resumePath, cfg.Resume.SimNow.Format(time.RFC3339), cfg.Resume.Cycles)
	} else {
		// Section 2 / Figure 1: the 2020-2022 historical pervasiveness study.
		fmt.Println(core.RenderFigure1(core.HistoricalStudy(*seed)))

		// Section 2: the D1 construction pipeline (VirusTotal labeling).
		fmt.Println(core.RenderD1(core.BuildD1(*seed, *scale)))

		// Section 3: the two-coder qualitative evaluation.
		fmt.Println(core.RenderCoderStudy(core.RunCoderStudy(*seed, 5000)))

		// Section 3 / Table 1: code similarity.
		start := time.Now()
		fmt.Println(core.RenderTable1(*seed, *table1N))
		fmt.Printf("(table 1 computed in %v)\n\n", time.Since(start).Round(time.Millisecond))

		// Section 4.2 / Table 2: model comparison.
		if !*skipTable2 {
			fmt.Println(renderTable2(*seed, *table2N))
		}
	}

	// Sections 5.1-5.5: the six-month measurement study.
	if prof != nil {
		fmt.Printf("fault injection enabled: %s\n\n", *faultSpec)
	}
	fmt.Println("training classifiers on the ground-truth corpus...")
	if err := fp.Train(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("running the six-month measurement study...")
	start := time.Now()
	study, err := fp.Run()
	if err != nil {
		log.Fatal(err)
	}
	studyDone.Store(true)
	fmt.Printf("study complete in %v: %d URLs under observation\n\n",
		time.Since(start).Round(time.Millisecond), len(study.Records))
	if err := fp.Verify(); err != nil {
		log.Fatalf("study failed verification: %v", err)
	}

	if *outPath != "" {
		fh, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := study.WriteJSONL(fh); err != nil {
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n\n", len(study.Records), *outPath)
	}

	if *journal != "" {
		fh, err := os.Create(*journal)
		if err != nil {
			log.Fatal(err)
		}
		if err := fp.Metrics.Journal.WriteJSONL(fh); err != nil {
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d lifecycle events to %s\n\n", fp.Metrics.Journal.Len(), *journal)
	}

	fmt.Println("classifier feature importance (top 8):")
	for i, rf := range fp.Model.Importance() {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-22s %.3f\n", rf.Name, rf.Importance)
	}
	fmt.Println()

	fmt.Println(core.RenderStats(fp.Stats()))
	fmt.Println(core.RenderSummary(study))
	fmt.Println(core.RenderTimeline(study))
	fmt.Println(core.RenderSection3(study))
	fmt.Println(core.RenderTable3(study))
	fmt.Println(core.RenderTable3CI(study, *seed))
	fmt.Println(core.RenderFigure6(study))
	fmt.Println(core.RenderFigure7(study))
	fmt.Println(core.RenderFigure8(study))
	fmt.Println(core.RenderTable4(study))
	fmt.Println(core.RenderFigure9(study))
	fmt.Println(core.RenderFigure5(study, 15))
	fmt.Println(core.RenderCategories(study))
	fmt.Println(core.RenderSection55(study))
	fmt.Println(core.RenderUptime(study))
	fmt.Println(core.RenderExposure(study, *seed))
	fmt.Println(core.RenderKitFamilies(study))

	if *opsAddr != "" && *linger {
		fmt.Printf("-linger: ops endpoints stay up on http://%s (ctrl-c to exit)\n", *opsAddr)
		select {}
	}
}

// renderTable2 runs the five-model bake-off on a fresh ground-truth corpus.
func renderTable2(seed int64, n int) string {
	all := baselines.SyntheticPairs(seed, n/2, time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC))
	rng := simclock.NewRNG(seed, "cmd.table2")
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := int(float64(len(all)) * 0.7)
	train, test := all[:cut], all[cut:]

	detectors := []baselines.Detector{
		baselines.NewVisualPhishNet(),
		baselines.NewPhishIntention(seed),
		baselines.NewURLNet(seed),
		baselines.NewBaseStackModel(seed),
		baselines.NewFreePhishModel(seed),
	}
	var results []baselines.Result
	for _, d := range detectors {
		if err := d.Train(train); err != nil {
			fmt.Fprintf(os.Stderr, "table2: train %s: %v\n", d.Name(), err)
			continue
		}
		r, err := baselines.Evaluate(d, test)
		if err != nil {
			fmt.Fprintf(os.Stderr, "table2: eval %s: %v\n", d.Name(), err)
			continue
		}
		results = append(results, r)
	}
	return core.RenderTable2(results)
}
