package core

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/faults"
	"freephish/internal/retry"
	"freephish/internal/threat"
	"freephish/internal/world"
)

// Backends: how the pipeline's world ports are wired.
const (
	// BackendInproc dispatches the crawler through an in-process
	// RoundTripper and binds the remaining ports straight to the Sim.
	// Zero sockets; the default.
	BackendInproc = "inproc"
	// BackendHTTP serves the simulated web, the platform APIs, the
	// blocklist feeds, and the SimAPI on real loopback listeners and
	// makes the pipeline reach everything over HTTP — the deployment
	// shape, producing a bit-identical study.
	BackendHTTP = "http"
)

// listenFunc binds a listener; tests inject failures through it.
type listenFunc func(network, addr string) (net.Listener, error)

func defaultListen(network, addr string) (net.Listener, error) {
	return net.Listen(network, addr)
}

// webServer is one loopback HTTP server fronting a simulated service.
type webServer struct {
	name string
	base string
	srv  *http.Server
	ln   net.Listener

	once    sync.Once
	stopErr error
}

// startServer binds a loopback listener and serves handler on it.
func (f *FreePhish) startServer(name string, handler http.Handler) (*webServer, error) {
	listen := f.listen
	if listen == nil {
		listen = defaultListen
	}
	ln, err := listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: listen for %s: %w", name, err)
	}
	ws := &webServer{
		name: name,
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go func() {
		// ErrServerClosed is the normal shutdown path.
		_ = ws.srv.Serve(ln)
	}()
	return ws, nil
}

// stop shuts the server down. It is safe to call more than once — the
// shutdown runs exactly once and later calls return the recorded error.
func (ws *webServer) stop() error {
	ws.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := ws.srv.Shutdown(ctx); err != nil {
			ws.stopErr = fmt.Errorf("core: stop %s: %w", ws.name, err)
		}
	})
	return ws.stopErr
}

// startServers wires the pipeline's world ports according to
// Config.Backend. Both wirings share the Sim substrate; they differ only
// in how the pipeline reaches it.
func (f *FreePhish) startServers() error {
	f.retryPol = f.buildRetry()
	if f.Config.Faults != nil {
		f.injector = faults.NewInjector(f.Config.Seed, *f.Config.Faults)
		f.injector.SetClock(f.Clock.Now, f.Config.Epoch)
		// Injected latency must not consume wall time — chaos is about
		// failure paths, not slowing the study down.
		f.injector.SetSleep(func(time.Duration) {})
	}
	switch f.Config.Backend {
	case "", BackendInproc:
		return f.startInproc()
	case BackendHTTP:
		return f.startHTTP()
	}
	return fmt.Errorf("core: unknown backend %q (want %q or %q)", f.Config.Backend, BackendInproc, BackendHTTP)
}

// buildRetry is the run's single retry policy: enough attempts to ride
// out the default fault profile's burst cap, backoff that never sleeps
// wall-clock (the sim clock is authoritative), and a per-endpoint
// breaker sized so only a genuine outage — not injected chaos — trips it.
func (f *FreePhish) buildRetry() *retry.Policy {
	return &retry.Policy{
		MaxAttempts:      4,
		BaseDelay:        100 * time.Millisecond,
		MaxDelay:         2 * time.Second,
		Multiplier:       2,
		Jitter:           0.25,
		Seed:             f.Config.Seed,
		Sleep:            retry.NoSleep,
		Now:              f.Clock.Now,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Minute,
	}
}

// chaos wraps h with the fault-injection middleware when chaos is on.
func (f *FreePhish) chaos(endpoint string, jsonBody bool, h http.Handler) http.Handler {
	if f.injector == nil {
		return h
	}
	return f.injector.Middleware(endpoint, jsonBody, h)
}

// startInproc dispatches the crawler's HTTP clients through an in-process
// RoundTripper — same handlers, same bytes, no sockets — and binds every
// other port directly to the Sim.
func (f *FreePhish) startInproc() error {
	rt := world.NewHandlerTransport()
	rt.Handle("web.inproc", f.chaos("web", false, f.Sim.WebHandler()))
	endpoints := make(map[threat.Platform]string, len(f.Sim.Networks))
	for _, plat := range f.Sim.Platforms() {
		h, _ := f.Sim.PlatformHandler(plat)
		host := string(plat) + ".inproc"
		rt.Handle(host, f.chaos(string(plat), true, h))
		endpoints[plat] = "http://" + host
	}
	// No Timeout: the handler runs on the caller's goroutine, so a deadline cuts nothing short, yet arms a timer per request.
	client := &http.Client{Transport: rt}
	f.wirePipeline("http://web.inproc", endpoints, client)
	var portFault func(endpoint, key string) error
	if f.injector != nil {
		portFault = f.injector.PortFault
	}
	f.world = world.WithJournal(
		world.WithRetry(world.WithFaults(world.Inproc(f.Sim), portFault), f.retryPol),
		f.Metrics.Journal)
	f.world.Stream = f.wrapStream(f.poller)
	f.world.Snap = f.fetcher
	f.eval = &evaluator{oracle: f.world.Oracle, state: f.State, metrics: f.Metrics}
	f.wireMetrics()
	return nil
}

// startHTTP brings up real loopback servers — the virtual-host web, the
// platform APIs, the SimAPI, and (when the monitor runs) the blocklist
// feeds — and points both the crawler and the world ports at them.
func (f *FreePhish) startHTTP() error {
	hostSrv, err := f.startServer("web", f.chaos("web", false, f.Sim.WebHandler()))
	if err != nil {
		return err
	}
	f.servers = append(f.servers, hostSrv)
	endpoints := make(map[threat.Platform]string, len(f.Sim.Networks))
	for _, plat := range f.Sim.Platforms() {
		h, _ := f.Sim.PlatformHandler(plat)
		s, err := f.startServer(string(plat), f.chaos(string(plat), true, h))
		if err != nil {
			f.stopServers()
			return err
		}
		f.servers = append(f.servers, s)
		endpoints[plat] = s.base
	}
	apiSrv, err := f.startServer("simapi", f.chaos("simapi", true, world.NewSimAPI(f.Sim)))
	if err != nil {
		f.stopServers()
		return err
	}
	f.servers = append(f.servers, apiSrv)
	feedBases := map[string]string{}
	if f.Config.MonitorInterval > 0 {
		if feedBases, err = f.startFeedServers(); err != nil {
			f.stopServers()
			return err
		}
	}
	f.wirePipeline(hostSrv.base, endpoints, nil)
	f.world = world.WithJournal(world.OverHTTP(world.Endpoints{
		API:       apiSrv.base,
		Platforms: endpoints,
		Feeds:     feedBases,
		Retry:     f.retryPol,
	}), f.Metrics.Journal)
	f.world.Stream = f.wrapStream(f.poller)
	f.world.Snap = f.fetcher
	f.eval = &evaluator{oracle: f.world.Oracle, state: f.State, metrics: f.Metrics}
	f.wireMetrics()
	return nil
}

// wrapStream applies the test seam to the backend-wired URL stream.
func (f *FreePhish) wrapStream(s world.URLStream) world.URLStream {
	if f.streamWrap != nil {
		return f.streamWrap(s)
	}
	return s
}

// wirePipeline builds the fetcher and poller against the given web base
// and platform endpoints — identical construction for both backends, so
// retries, caching, and pagination behave the same way everywhere. A nil
// client leaves each component on its own timeout-bearing default.
func (f *FreePhish) wirePipeline(webBase string, endpoints map[threat.Platform]string, client *http.Client) {
	f.fetcher = crawler.NewFetcher(webBase)
	if client != nil {
		f.fetcher.Client = client
	}
	f.fetcher.Retry = f.retryPol
	if f.Config.SnapshotCacheSize >= 0 {
		f.snapCache = crawler.NewSnapshotCache(f.Config.SnapshotCacheSize)
		f.fetcher.Cache = f.snapCache
	}
	f.poller = crawler.NewPoller(endpoints, client, f.Config.Epoch)
	f.poller.Retry = f.retryPol
	if f.Config.PollQuota > 0 {
		// Quota bucket against the simulation clock, so throttling scales
		// with virtual (not wall) time.
		f.poller.Limiter = crawler.NewRateLimiter(f.Config.PollQuota, f.Config.PollQuotaRate, f.Clock.Now)
	}
}

// startFeedServers exposes each blocklist feed's lookup API on its own
// loopback server and returns the per-entity base URLs.
func (f *FreePhish) startFeedServers() (map[string]string, error) {
	bases := make(map[string]string, len(f.Sim.Feeds))
	for _, name := range f.Sim.FeedNames() {
		feed, _ := f.Sim.FeedHandler(name)
		srv, err := f.startServer("feed."+name, f.chaos("feed."+name, true, feed))
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		bases[name] = srv.base
	}
	return bases, nil
}

// Close releases every live resource this framework holds: the loopback
// servers and the crawler clients' idle connections. Idempotent, and safe
// on a partially started framework (every field it touches is nil-guarded).
// Every shard runner closes its child when the attempt ends, so a retry
// never stacks a leaked listener or keep-alive socket on top of the dead
// one, and a coordinator that fails abandons no sibling shard.
func (f *FreePhish) Close() {
	f.stopServers()
	if f.fetcher != nil && f.fetcher.Client != nil {
		f.fetcher.Client.CloseIdleConnections()
	}
	if f.poller != nil && f.poller.Client != nil {
		f.poller.Client.CloseIdleConnections()
	}
}

// stopServers shuts every server down. Safe under double invocation (the
// per-server stop is once-guarded); shutdown errors are surfaced through
// the run logger instead of being discarded.
func (f *FreePhish) stopServers() {
	logger := f.Config.Logger
	if logger == nil {
		logger = slog.Default()
	}
	for _, s := range f.servers {
		if err := s.stop(); err != nil {
			logger.Error("server shutdown failed", "server", s.name, "err", err)
		}
	}
	f.servers = nil
}
