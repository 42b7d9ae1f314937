package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// OpsOptions configures the optional parts of the operational surface.
type OpsOptions struct {
	// Healthz reports readiness; nil means always healthy.
	Healthz func() error
	// Dash, when non-nil, mounts the live dashboard at /dash.
	Dash *Dash
	// Info is the /version body — typically the map RegisterBuildInfo
	// returned. nil serves an empty object.
	Info map[string]string
}

// NewOps assembles the standard operational surface every FreePhish
// daemon exposes:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       200 "ok", or 503 with the error from opts.Healthz
//	/version       build identity JSON (opts.Info)
//	/debug/vars    expvar JSON (process-wide)
//	/debug/pprof/  the net/http/pprof profile suite
//	/dash          the live dashboard, when opts.Dash is set
//
// Mount the mux on a loopback listener, or split traffic onto it from an
// application listener with OpsPaths.
func NewOps(reg *Registry, opts OpsOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Healthz != nil {
			if err := opts.Healthz(); err != nil {
				http.Error(w, fmt.Sprintf("unhealthy: %v", err), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		info := opts.Info
		if info == nil {
			info = map[string]string{}
		}
		json.NewEncoder(w).Encode(info)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if opts.Dash != nil {
		opts.Dash.Register(mux)
	}
	return mux
}

// OpsPaths reports whether path belongs to the operational surface —
// daemons that multiplex ops routes onto an application listener use it
// to split traffic.
func OpsPaths(path string) bool {
	switch path {
	case "/metrics", "/healthz", "/version", "/debug/vars", "/dash":
		return true
	}
	if len(path) >= len("/dash/") && path[:len("/dash/")] == "/dash/" {
		return true
	}
	return len(path) >= len("/debug/pprof/") && path[:len("/debug/pprof/")] == "/debug/pprof/"
}
