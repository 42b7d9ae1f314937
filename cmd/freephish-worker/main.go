// Command freephish-worker runs study shards on behalf of a remote
// freephish coordinator — the worker side of the shard-dispatch boundary
// (internal/shard, internal/shardrpc):
//
//	freephish-worker [-listen 127.0.0.1:7001] [-workers N]
//
// The coordinator POSTs a shard spec to /run; the worker rebuilds the
// shard's complete framework from it (retraining the models
// bit-identically from the spec's seed, cached across shards of the same
// study), runs it, streams periodic checkpoint envelopes back, and
// finishes the response with the shard's final state snapshot. A
// two-terminal session:
//
//	freephish-worker -listen 127.0.0.1:7001 &
//	freephish -shards 4 -shard-workers 127.0.0.1:7001
//
// The study's records, journal, and stats are byte-identical whether its
// shards run here or in the coordinator's own process — and if this
// worker dies mid-shard, the coordinator adopts the last streamed
// checkpoint into a replacement runner instead of replaying the shard
// from scratch.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"time"

	"freephish/internal/core"
	"freephish/internal/obs"
	"freephish/internal/shardrpc"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7001", "address to serve shard dispatches on")
		workers = flag.Int("workers", 0, fmt.Sprintf("probe/training worker pool size on this machine; 0 = the dispatched spec's own size, refused above %d (0 in the spec = one per CPU; shard output is byte-identical at every setting)", core.MaxSpecParallelism))
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	runner := core.NewSpecRunner()
	runner.Workers = *workers
	runner.Logger = logger

	reg := obs.NewRegistry()
	info := obs.RegisterBuildInfo(reg, 0)
	mux := obs.NewOps(reg, obs.OpsOptions{Info: info})
	mux.Handle("/run", &shardrpc.Server{Runner: runner.Port(), Logger: logger})

	srv := &http.Server{
		Addr: *listen, Handler: mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("freephish-worker serving shard dispatches on http://%s/run (/metrics, /healthz, /version alongside)\n", *listen)
	log.Fatal(srv.ListenAndServe())
}
