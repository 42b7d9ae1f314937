package core

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/analysis"
)

// equivalenceConfig is small enough to run the study twice in one test
// while still streaming both cohorts and exercising the monitor.
func equivalenceConfig(backend string) Config {
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.Scale = 0.003
	cfg.TrainPerClass = 80
	cfg.Workers = 4
	cfg.MonitorInterval = 24 * time.Hour
	cfg.Backend = backend
	return cfg
}

// backendRun is one equivalenceConfig study, shared by the tests that
// read it: its outputs, its framework, and the traffic its Snapshotter and
// SiteIntel ports carried.
type backendRun struct {
	f       *FreePhish
	study   *analysis.Study
	jsonl   []byte
	stats   Stats
	obs     map[string]*Observation
	table3  string
	figure5 string
	ports   *portLog
	err     error
}

var (
	backendRunsMu sync.Mutex
	backendRuns   = map[string]*backendRun{}
)

// equivalenceRun runs the equivalenceConfig study on backend once per
// test binary, with a portLog on the world ports, and fails t if it failed.
func equivalenceRun(t *testing.T, backend string) *backendRun {
	t.Helper()
	backendRunsMu.Lock()
	defer backendRunsMu.Unlock()
	r, ok := backendRuns[backend]
	if !ok {
		r = runEquivalence(backend)
		backendRuns[backend] = r
	}
	if r.err != nil {
		t.Fatalf("%s backend: %v", backend, r.err)
	}
	return r
}

func runEquivalence(backend string) *backendRun {
	r := &backendRun{f: newCached(equivalenceConfig(backend)), ports: newPortLog()}
	r.f.wrapWorld = r.ports.wrap
	study, err := r.f.Run()
	if err != nil {
		r.err = err
		return r
	}
	if err := r.f.Verify(); err != nil {
		r.err = fmt.Errorf("failed verification: %w", err)
		return r
	}
	if len(study.Records) == 0 {
		r.err = errors.New("produced no records")
		return r
	}
	var buf bytes.Buffer
	if err := study.WriteJSONL(&buf); err != nil {
		r.err = err
		return r
	}
	r.study, r.jsonl, r.stats, r.obs = study, buf.Bytes(), r.f.Stats(), r.f.Observations()
	r.table3, r.figure5 = RenderTable3(study), RenderFigure5(study, 15)
	return r
}

// TestCrossBackendEquivalence is the tentpole acceptance check: the same
// seed pushed through the in-process port wiring and through real
// loopback HTTP servers must produce byte-identical studies. Everything
// stateful happens in the Sim in stream order, so the access path — direct
// call or wire round-trip — must not be observable in the results.
func TestCrossBackendEquivalence(t *testing.T) {
	inproc := equivalenceRun(t, BackendInproc)
	overHTTP := equivalenceRun(t, BackendHTTP)

	if !bytes.Equal(inproc.jsonl, overHTTP.jsonl) {
		a := strings.Split(string(inproc.jsonl), "\n")
		b := strings.Split(string(overHTTP.jsonl), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("study diverges at record %d:\ninproc: %s\nhttp:   %s", i, a[i], b[i])
			}
		}
		t.Fatalf("study lengths diverge: inproc %d records, http %d", len(a), len(b))
	}
	if inproc.stats != overHTTP.stats {
		t.Errorf("stats diverge:\ninproc: %+v\nhttp:   %+v", inproc.stats, overHTTP.stats)
	}
	if !reflect.DeepEqual(inproc.obs, overHTTP.obs) {
		t.Errorf("monitor observations diverge: inproc %d URLs, http %d", len(inproc.obs), len(overHTTP.obs))
	}
	if inproc.table3 != overHTTP.table3 {
		t.Errorf("Table 3 diverges:\n%s\nvs\n%s", inproc.table3, overHTTP.table3)
	}
	if inproc.figure5 != overHTTP.figure5 {
		t.Errorf("Figure 5 diverges")
	}
}

// TestPipelineFilesFreeOfSimulatorImports pins the ports-and-adapters
// boundary: the pipeline sources may speak only to world ports, never to
// the simulator packages behind them. New direct imports of the simulated
// world are architecture regressions even when they compile.
func TestPipelineFilesFreeOfSimulatorImports(t *testing.T) {
	pipelineFiles := []string{"core.go", "serve.go", "monitor.go", "verify.go", "metrics.go", "eval.go", "shard.go", "dispatch.go"}
	banned := []string{
		"freephish/internal/fwb",
		"freephish/internal/social",
		"freephish/internal/vtsim",
		"freephish/internal/webgen",
		"freephish/internal/whois",
		"freephish/internal/ctlog",
	}
	fset := token.NewFileSet()
	for _, name := range pipelineFiles {
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, bad := range banned {
				if path == bad {
					t.Errorf("%s imports %s: the pipeline must reach the simulated world only through internal/world ports", name, path)
				}
			}
		}
	}
}

// TestProductionFilesFreeOfBannedHTTPAndSleep extends the architecture
// lint repo-wide: no production file may reference http.DefaultClient (no
// timeout — a stalled endpoint hangs the pipeline forever) or bare
// time.Sleep (wall-clock waits belong to the unified retry policy or the
// sim clock, never inline in retryable paths). Both bug classes were fixed
// by hand once; this makes the regression impossible. The fault injector's
// default sleep hook is the one legitimate production time.Sleep.
func TestProductionFilesFreeOfBannedHTTPAndSleep(t *testing.T) {
	root := filepath.Join("..", "..")
	allowSleep := map[string]bool{
		// The injector's latency hook defaults to time.Sleep and is replaced
		// with a no-op wherever the sim clock is authoritative.
		filepath.Join("internal", "faults", "faults.go"): true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case pkg.Name == "http" && sel.Sel.Name == "DefaultClient":
				t.Errorf("%s:%d references http.DefaultClient: use a client with a timeout",
					rel, fset.Position(sel.Pos()).Line)
			case pkg.Name == "time" && sel.Sel.Name == "Sleep" && !allowSleep[rel]:
				t.Errorf("%s:%d references time.Sleep: route waits through the retry policy or the sim clock",
					rel, fset.Position(sel.Pos()).Line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// studyStateFields are the field names internal/state owns exclusively:
// Stats counters and Observation findings. The apply points in that
// package are the only legal writers — a direct mutation anywhere else
// bypasses the single-writer discipline that makes shard snapshots
// mergeable.
var studyStateFields = map[string]bool{
	"Polls": true, "PostsSeen": true, "URLsScanned": true,
	"FlaggedFWB": true, "FlaggedSelf": true,
	"TruePositives": true, "FalsePositives": true, "FalseNegatives": true,
	"ReportsSent": true, "LexicalBenign": true, "LexicalPhish": true,
	"HostDownAt": true, "Listings": true, "Probes": true,
}

// TestStudyStateMutationsConfinedToStateLayer lints every production file
// repo-wide: no assignment, compound assignment, or ++/-- may target a
// StudyState-owned field outside internal/state. The field names are
// distinctive enough that a name match is a real violation, and the lint
// is what turns the package-doc ownership rule from a convention into a
// regression test.
func TestStudyStateMutationsConfinedToStateLayer(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	flag := func(rel string, pos token.Pos, field string) {
		t.Errorf("%s:%d mutates %s directly: only internal/state's apply points may write StudyState fields",
			rel, fset.Position(pos).Line, field)
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(rel, filepath.Join("internal", "state")+string(filepath.Separator)) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && studyStateFields[sel.Sel.Name] {
						flag(rel, sel.Pos(), sel.Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := stmt.X.(*ast.SelectorExpr); ok && studyStateFields[sel.Sel.Name] {
					flag(rel, sel.Pos(), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// instrumentConstructors are the obs.Registry methods whose first
// argument is a metric name.
var instrumentConstructors = map[string]bool{
	"Counter": true, "CounterVec": true, "Gauge": true, "GaugeVec": true,
	"GaugeFunc": true, "Histogram": true, "HistogramVec": true,
}

// TestMetricNamesPrefixedAndWellFormed lints every production
// registration call repo-wide: literal metric names must carry the
// `freephish_` namespace and stay within the conservative Prometheus
// charset (lowercase, digits, underscores). One daemon shipped
// `fwbhost_*` names once; a shared prefix is what lets dashboards and
// the /dash sample filter select "everything ours" with one rule.
func TestMetricNamesPrefixedAndWellFormed(t *testing.T) {
	root := filepath.Join("..", "..")
	nameRE := regexp.MustCompile(`^freephish_[a-z0-9_]+$`)
	fset := token.NewFileSet()
	registrations := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !instrumentConstructors[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				// Computed names (e.g. the tracer's <name>_stage_seconds)
				// are namespaced by their callers; only literals are
				// checkable here.
				return true
			}
			name := strings.Trim(lit.Value, "`\"")
			registrations++
			if !nameRE.MatchString(name) {
				t.Errorf("%s:%d registers metric %q: names must match %s",
					rel, fset.Position(lit.Pos()).Line, name, nameRE)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if registrations < 20 {
		t.Fatalf("lint saw only %d literal registrations; the AST walk has gone blind", registrations)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "carrier-pigeon"
	f := New(cfg)
	err := f.startServers()
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("startServers = %v, want unknown-backend error", err)
	}
}

func TestWebServerStopIdempotent(t *testing.T) {
	f := New(DefaultConfig())
	ws, err := f.startServer("test", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.stop(); err != nil {
		t.Fatalf("first stop: %v", err)
	}
	if err := ws.stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// countingListener wraps a net.Listener to track Close calls. Closes land
// on the Serve goroutines, hence the atomic.
type countingListener struct {
	net.Listener
	closes *atomic.Int64
}

func (l countingListener) Close() error {
	l.closes.Add(1)
	return l.Listener.Close()
}

// TestStopServersSafeAfterFeedStartupFailure reproduces the satellite-2
// hazard: startFeedServers fails midway on the http backend, startHTTP
// tears down what it already started, and Run's deferred stopServers fires
// again. Nothing may double-close or panic.
func TestStopServersSafeAfterFeedStartupFailure(t *testing.T) {
	cfg := equivalenceConfig(BackendHTTP)
	f := New(cfg)
	// Allow the web, platform, SimAPI, and first feed listeners, then
	// fail on the second feed server.
	okListens := 1 + len(f.Sim.Platforms()) + 1 + 1
	listens := 0
	var closes atomic.Int64
	f.listen = func(network, addr string) (net.Listener, error) {
		if listens >= okListens {
			return nil, fmt.Errorf("injected listen failure")
		}
		listens++
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return countingListener{ln, &closes}, nil
	}
	err := f.startServers()
	if err == nil || !strings.Contains(err.Error(), "injected listen failure") {
		t.Fatalf("startServers = %v, want the injected failure", err)
	}
	if len(f.servers) != 0 {
		t.Fatalf("startServers left %d servers registered after failing", len(f.servers))
	}
	// The deferred stop in Run fires on the error path too: it must be a
	// no-op now, not a second shutdown of the already-stopped servers.
	f.stopServers()
	f.stopServers()
	// Every created listener ends up closed exactly once; the closes land
	// asynchronously when shutdown races a Serve goroutine still starting.
	deadline := time.Now().Add(2 * time.Second)
	for closes.Load() != int64(listens) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := closes.Load(); got != int64(listens) {
		t.Fatalf("%d listeners created but %d closes recorded", listens, got)
	}
}
