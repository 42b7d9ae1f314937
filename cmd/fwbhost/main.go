// Command fwbhost serves a simulated FWB ecosystem over HTTP for
// inspection and for driving the freephish-proxy demo:
//
//	fwbhost [-addr 127.0.0.1:8800] [-sites 40] [-phish 0.4] [-seed 1]
//
// Every simulated domain (shop.weebly.com, sites.google.com/view/..., and
// so on) is served from the one listener; request them with a Host header
// or through a proxy, e.g.:
//
//	curl -H 'Host: shop-1.weebly.com' http://127.0.0.1:8800/
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"freephish/internal/fwb"
	"freephish/internal/obs"
	socialpkg "freephish/internal/social"
	"freephish/internal/threat"
	"freephish/internal/urlx"
	"freephish/internal/webgen"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8800", "listen address")
		sites    = flag.Int("sites", webgen.DemoSites, "number of sites to generate")
		phishFrc = flag.Float64("phish", webgen.DemoPhishFrac, "fraction of sites that are phishing attacks")
		seed     = flag.Int64("seed", 1, "generation seed")
		social   = flag.Bool("social", false, "also publish every site in a post and serve the platform APIs under /twitter and /facebook")
		ops      = flag.Bool("ops", true, "serve /metrics, /healthz, /version and /debug/pprof on the same listener")
		dash     = flag.Bool("dash", false, "with -ops, serve the live dashboard on /dash (enables request tracing)")
		journal  = flag.String("journal", "", "stream publish/request trace events as JSONL to this file (enables request tracing)")
	)
	flag.Parse()

	now := time.Now
	host := fwb.NewHost(now)
	g := webgen.NewGenerator(*seed, nil, nil)
	epoch := time.Now()

	// The journal traces the simulated ecosystem: one lifecycle event per
	// published site, ring-only ops events per served request.
	var jr *obs.Journal
	if *dash || *journal != "" {
		jr = obs.NewJournal(nil, 0)
		if *journal != "" {
			fh, err := os.Create(*journal)
			if err != nil {
				log.Fatal(err)
			}
			jr.SetSink(fh)
			fmt.Printf("streaming trace events to %s\n", *journal)
		}
	}

	published, nPhish := g.PublishDemoWeb(host, *sites, *phishFrc, epoch)
	fmt.Printf("simulated FWB web on http://%s (%d sites, %d phishing)\n\n", *addr, *sites, nPhish)
	for _, site := range published {
		jr.Record(site.URL, "published", time.Now(),
			"kind", string(site.Kind), "service", site.Service.Key)
		p, err := urlx.Parse(site.URL)
		if err != nil {
			continue
		}
		fmt.Printf("  [%-12s] %-10s curl -H 'Host: %s' 'http://%s%s'\n",
			site.Kind, site.Service.Key, p.Host, *addr, pathOrRoot(p.Path))
	}
	handler := http.Handler(host)
	if *social {
		tw := socialpkg.NewNetwork(threat.Twitter, time.Now)
		fb := socialpkg.NewNetwork(threat.Facebook, time.Now)
		i := 0
		for _, site := range host.Sites() {
			nw := tw
			if i%3 == 0 {
				nw = fb
			}
			if site.Kind.IsMalicious() {
				nw.Publish(g.LureText(site.URL), epoch)
			} else {
				nw.Publish(g.BenignPostText(site.URL), epoch)
			}
			i++
		}
		mux := http.NewServeMux()
		mux.Handle("/twitter/", http.StripPrefix("/twitter", tw))
		mux.Handle("/facebook/", http.StripPrefix("/facebook", fb))
		mux.Handle("/", host)
		handler = mux
		fmt.Printf("\nplatform APIs: http://%s/twitter/posts and http://%s/facebook/posts\n", *addr, *addr)
	}
	if *ops {
		reg := obs.NewRegistry()
		info := obs.RegisterBuildInfo(reg, *seed)
		reg.Gauge("freephish_fwbhost_sites", "Sites currently published on the simulated web.").
			Set(float64(len(host.Sites())))
		reqs := reg.CounterVec("freephish_fwbhost_requests_total",
			"HTTP requests served, by response status code.", "code")
		lat := reg.Histogram("freephish_fwbhost_request_seconds",
			"Wall-clock time to serve one request.", obs.DefBuckets)
		opts := obs.OpsOptions{Info: info}
		if *dash {
			opts.Dash = &obs.Dash{Reg: reg, Journal: jr, Title: "fwbhost", Info: info}
		}
		opsMux := obs.NewOps(reg, opts)
		app := handler
		// Ops routes ride the application listener; requests carrying a
		// simulated Host header never collide with them because the split
		// is by path, before virtual-host dispatch.
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if obs.OpsPaths(r.URL.Path) {
				opsMux.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			app.ServeHTTP(sw, r)
			reqs.With(strconv.Itoa(sw.code)).Inc()
			lat.Observe(time.Since(start).Seconds())
			jr.RecordOps("http://"+r.Host+r.URL.Path, "request",
				"code", strconv.Itoa(sw.code))
		})
		fmt.Printf("\nops endpoints: http://%s/metrics /healthz /version /debug/pprof/\n", *addr)
	}
	fmt.Println("\nserving... (ctrl-c to stop)")
	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	log.Fatal(srv.ListenAndServe())
}

// statusWriter records the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func pathOrRoot(p string) string {
	if p == "" {
		return "/"
	}
	return p
}
