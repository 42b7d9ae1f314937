// Command freephish-proxy runs the FreePhish protective proxy — the Go
// counterpart of the paper's Chromium web extension (Figure 13):
//
//	freephish-proxy [-addr 127.0.0.1:8899] [-train 400] [-seed 1] [-upstream URL] [-backend http|inproc]
//
// The proxy trains the FreePhish classifier on a generated ground-truth
// corpus at startup and then blocks navigation to FWB pages it classifies
// as phishing. Point a browser (or curl -x) at it, with -upstream set to a
// running fwbhost instance so the simulated domains resolve:
//
//	fwbhost -addr 127.0.0.1:8800 &
//	freephish-proxy -addr 127.0.0.1:8899 -upstream http://127.0.0.1:8800
//	curl -x http://127.0.0.1:8899 'http://paypal-login-3.weebly.com/'
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/fwb"
	"freephish/internal/obs"
	"freephish/internal/proxy"
	"freephish/internal/webgen"
	"freephish/internal/world"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8899", "proxy listen address")
		trainN     = flag.Int("train", 400, "ground-truth pairs to train the classifier on")
		seed       = flag.Int64("seed", 1, "seed")
		upstream   = flag.String("upstream", "", "base URL all fetches are routed to (an fwbhost instance); empty = the real network")
		modelPath  = flag.String("model", "", "load a trained model instead of training (see -save-model)")
		savePath   = flag.String("save-model", "", "after training, write the model here for future -model runs")
		opsAddr    = flag.String("ops", "", "serve /metrics, /healthz, /version, /debug/vars and /debug/pprof on this separate address")
		dashFlag   = flag.Bool("dash", false, "with -ops, serve the live dashboard on /dash (enables request tracing)")
		journalOut = flag.String("journal", "", "stream per-request trace events as JSONL to this file (enables request tracing)")
		workers    = flag.Int("workers", 0, "training worker pool size; 0 = one per CPU (the trained model is identical at every setting)")
		queueDepth = flag.Int("queue-depth", 0, "max concurrent live classifications (fetch + score); bursts beyond it queue; 0 = unbounded")
		cacheTTL   = flag.Duration("cache-ttl", 0, "expire cached verdicts older than this at lookup time (cleaned-up or newly compromised pages get re-scored); 0 = never expire")
		cascadeStr = flag.String("cascade", "", "tiered cascade: off, on (calibrated thresholds), or benignBelow,phishAbove — confidently triaged URLs are answered from the URL string alone, before any fetch")
		backend    = flag.String("backend", "http", "how fetches reach the web: http (via -upstream or the real network) or inproc (serve a seeded simulated FWB web in this process; no fwbhost needed)")
		faultSpec  = flag.String("faults", "", "with -backend inproc, inject chaos into the simulated web: off, default, or a k=v spec (see freephish -faults); exercises the proxy's retry path")
	)
	flag.Parse()

	faultProf, err := faults.ParseProfile(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	benignBelow, phishAbove, cascadeOn, err := baselines.ParseCascadeThresholds(*cascadeStr)
	if err != nil {
		log.Fatal(err)
	}

	// The cascade's lexical scorer trains on the same ground-truth pairs as
	// the full model, so the pairs are generated even when -model skips the
	// full training run.
	var train []baselines.LabeledPage
	if *modelPath == "" || cascadeOn {
		train = baselines.SyntheticPairs(*seed, *trainN, time.Now())
	}

	var model *baselines.StackDetector
	if *modelPath != "" {
		fh, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err = baselines.LoadStackDetector(fh)
		fh.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded trained model from %s", *modelPath)
	} else {
		log.Printf("training the FreePhish classifier on %d pairs...", *trainN)
		model = baselines.NewFreePhishModel(*seed)
		model.SetParallelism(*workers)
		if err := model.Train(train); err != nil {
			log.Fatal(err)
		}
		if *savePath != "" {
			fh, err := os.Create(*savePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := model.Save(fh); err != nil {
				log.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("saved trained model to %s", *savePath)
		}
	}

	fetcher, transport, sites, err := newBackend(*backend, *upstream, *seed, faultProf)
	if err != nil {
		log.Fatal(err)
	}
	if sites != nil {
		if faultProf != nil {
			log.Printf("fault injection enabled on the simulated web: %s", *faultSpec)
		}
		nPhish := 0
		for _, site := range sites {
			if site.Kind.IsMalicious() {
				nPhish++
			}
		}
		log.Printf("inproc backend: %d simulated FWB sites served in-process (%d phishing)", len(sites), nPhish)
		for i, site := range sites {
			if i >= 5 {
				log.Printf("  ... and %d more", len(sites)-i)
				break
			}
			// The http:// form: curl would send an https URL as a CONNECT,
			// which the proxy declines.
			log.Printf("  [%-12s] curl -x http://%s 'http://%s'", site.Kind, *addr, strings.TrimPrefix(site.URL, "https://"))
		}
	}
	checker := proxy.NewLiveChecker(model, fetcher.Snapshot)
	checker.SetMaxInFlight(*queueDepth)
	if *cacheTTL > 0 {
		checker.SetCacheTTL(*cacheTTL, nil)
		log.Printf("verdict cache TTL %v: stale verdicts are re-scored on next check", *cacheTTL)
	}
	if cascadeOn {
		log.Printf("training the lexical cascade scorer on %d pairs...", len(train))
		lex := baselines.NewLexicalScorer(*seed)
		if err := lex.Train(train); err != nil {
			log.Fatal(err)
		}
		checker.SetCascade(&baselines.Cascade{Scorer: lex, BenignBelow: benignBelow, PhishAbove: phishAbove})
		log.Printf("cascade enabled (benign<%g, phish>%g): confidently triaged URLs are answered without a fetch", benignBelow, phishAbove)
	}
	px := proxy.New(checker, transport)

	// Per-request decision and latency metrics; the ops listener is
	// separate from the proxy port so scrapes never route through the
	// proxy's own check path.
	reg := obs.NewRegistry()
	info := obs.RegisterBuildInfo(reg, *seed)
	decisions := reg.CounterVec("freephish_proxy_requests_total",
		"Proxied requests by decision (block or pass).", "decision")
	checkLat := reg.Histogram("freephish_proxy_request_seconds",
		"Wall-clock time to check and serve one proxied request.", obs.DefBuckets)
	// The journal gives each proxied request a trace event; a daemon has
	// no sim clock, so events are stamped with wall time.
	var journal *obs.Journal
	if *dashFlag || *journalOut != "" {
		journal = obs.NewJournal(nil, 0)
		if *journalOut != "" {
			fh, err := os.Create(*journalOut)
			if err != nil {
				log.Fatal(err)
			}
			journal.SetSink(fh)
			log.Printf("streaming trace events to %s", *journalOut)
		}
	}
	px.Observe = func(url string, blocked bool, wall time.Duration) {
		d := "pass"
		if blocked {
			d = "block"
		}
		decisions.With(d).Inc()
		checkLat.Observe(wall.Seconds())
		journal.Record(url, "checked", time.Now(),
			"decision", d, "wall_ms", fmt.Sprintf("%.2f", float64(wall)/float64(time.Millisecond)))
	}
	// The verdict cache is bounded (LRU); these counters make its churn
	// visible so an undersized cache shows up as an eviction rate.
	reg.GaugeFunc("freephish_proxy_cache_hits_total",
		"Checks answered from the bounded verdict cache.", func() float64 {
			hits, _, _, _ := checker.CacheStats()
			return float64(hits)
		})
	reg.GaugeFunc("freephish_proxy_cache_misses_total",
		"Checks that had to classify (lexically or live).", func() float64 {
			_, misses, _, _ := checker.CacheStats()
			return float64(misses)
		})
	reg.GaugeFunc("freephish_proxy_cache_evictions_total",
		"Verdicts dropped by the LRU bound.", func() float64 {
			_, _, evictions, _ := checker.CacheStats()
			return float64(evictions)
		})
	reg.GaugeFunc("freephish_proxy_cache_expired_total",
		"Cached verdicts dropped by TTL expiry.", func() float64 {
			return float64(checker.CacheExpired())
		})
	if *opsAddr != "" {
		opts := obs.OpsOptions{Info: info}
		if *dashFlag {
			opts.Dash = &obs.Dash{Reg: reg, Journal: journal, Title: "freephish-proxy", Info: info}
		}
		go func() {
			srv := &http.Server{
				Addr:              *opsAddr,
				Handler:           obs.NewOps(reg, opts),
				ReadHeaderTimeout: 5 * time.Second,
			}
			log.Fatalf("ops listener: %v", srv.ListenAndServe())
		}()
		log.Printf("ops endpoints on http://%s (/metrics, /healthz, /version, /debug/pprof)", *opsAddr)
	}

	// /proxy.pac routes only the 17 FWB hosting domains through the proxy;
	// all other traffic stays direct.
	var fwbDomains []string
	for _, svc := range fwb.All() {
		fwbDomains = append(fwbDomains, svc.Domain)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/proxy.pac", func(w http.ResponseWriter, r *http.Request) {
		proxy.ServePAC(w, *addr, fwbDomains)
	})
	handler := http.Handler(px)
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/proxy.pac" && !r.URL.IsAbs() {
			mux.ServeHTTP(w, r)
			return
		}
		handler.ServeHTTP(w, r)
	})

	fmt.Printf("freephish-proxy listening on %s (upstream=%s, PAC at /proxy.pac)\n", *addr, orDirect(*upstream))
	srv := &http.Server{Addr: *addr, Handler: wrapped, ReadHeaderTimeout: 5 * time.Second}
	log.Fatal(srv.ListenAndServe())
}

func orDirect(s string) string {
	if s == "" {
		return "direct"
	}
	return s
}

// newBackend wires how the proxy reaches the web. One Fetcher serves
// both the live checker and the pass-through transport. On "http" it
// dials upstream (an fwbhost instance), or the real network when upstream
// is empty, and then passed-through requests go out on
// http.DefaultTransport (a nil transport). On "inproc" it publishes the
// seeded demo web in this process and fetches it the way a study does,
// through world.Snapshots, drawing prof's faults when prof is non-nil;
// sites lists the published sites.
func newBackend(backend, upstream string, seed int64, prof *faults.Profile) (fetcher *crawler.Fetcher, transport http.RoundTripper, sites []*fwb.Site, err error) {
	fetcher = crawler.NewFetcher(upstream)
	switch backend {
	case "http":
		if prof != nil {
			return nil, nil, nil, errors.New("-faults requires -backend inproc (chaos is injected into the simulated web)")
		}
		if upstream == "" {
			return fetcher, nil, nil, nil
		}
		return fetcher, fetchTransport{fetcher}, nil, nil
	case "inproc":
		host := fwb.NewHost(time.Now)
		sites, _ = webgen.NewGenerator(seed, nil, nil).PublishDemoWeb(host, webgen.DemoSites, webgen.DemoPhishFrac, time.Now())
		var chaos func(endpoint, host, requestURI string, serve func() (int, string)) (int, string, error)
		if prof != nil {
			chaos = faults.NewInjector(seed, *prof).Get
		}
		fetcher.Source = world.Snapshots(host, chaos)
		return fetcher, fetchTransport{fetcher}, sites, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown -backend %q (want http or inproc)", backend)
}

// fetchTransport routes passed-through requests via the Fetcher (pointed
// at the upstream fwbhost or the in-process simulated web) while
// preserving the virtual Host header.
type fetchTransport struct{ f *crawler.Fetcher }

func (t fetchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	page, status, err := t.f.Snapshot(r.URL.String())
	if err != nil {
		return nil, err
	}
	return newBodyResponse(status, page.HTML, r), nil
}
