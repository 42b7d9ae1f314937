package freephish_test

// Parallelism benchmarks: the same pipeline and trainer workloads at
// several worker-pool sizes, so the speedup (or, on a single-core CI
// machine, the overhead) of the pipe fan-out is a measured number
// rather than a claim. TestWriteParallelBenchBaseline snapshots them as
// machine-readable JSON (BENCH_parallel.json) for bench-compare.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"freephish/internal/core"
	"freephish/internal/ml"
	"freephish/internal/simclock"
)

// pipelineBench runs a complete tiny study at a fixed Workers setting.
// Results are bit-identical across settings; only wall-clock may differ.
func pipelineBench(workers int) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig()
			cfg.Seed = int64(200 + i)
			cfg.Scale = 0.005
			cfg.TrainPerClass = 120
			cfg.Workers = workers
			fp := core.New(cfg)
			if _, err := fp.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPipelineParallel measures the end-to-end study (streaming,
// snapshotting, classification, reporting) across probe-pool sizes.
func BenchmarkPipelineParallel(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), pipelineBench(w))
	}
}

// forestDataset builds a deterministic synthetic binary dataset with
// enough signal that the forest grows real (non-stump) trees.
func forestDataset(n int, seed int64) *ml.Dataset {
	rng := simclock.NewRNG(seed, "bench.forest")
	d := &ml.Dataset{Names: []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}}
	for i := 0; i < n; i++ {
		y := i % 2
		x := make([]float64, len(d.Names))
		for j := range x {
			x[j] = rng.Float64() + float64(y)*0.3*float64(j%3)
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// forestFitBench fits the random forest at a fixed tree-pool size.
func forestFitBench(workers int) func(*testing.B) {
	return func(b *testing.B) {
		d := forestDataset(2000, 11)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rf := ml.NewRandomForest(11)
			rf.Config.Parallelism = workers
			if err := rf.Fit(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkForestFitParallel measures parallel tree construction.
func BenchmarkForestFitParallel(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), forestFitBench(w))
	}
}

// TestWriteParallelBenchBaseline runs the parallelism benchmarks
// programmatically and writes machine-readable JSON, the same shape as
// TestWriteBenchBaseline, so bench-compare can diff worker-count scaling
// across commits:
//
//	BENCH_PARALLEL_JSON=BENCH_parallel.json go test -run TestWriteParallelBenchBaseline .
func TestWriteParallelBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_PARALLEL_JSON")
	if path == "" {
		t.Skip("set BENCH_PARALLEL_JSON=<path> to write the parallelism baseline")
	}
	benches := []struct {
		Name string
		Fn   func(*testing.B)
	}{
		{"PipelineParallel/workers=1", pipelineBench(1)},
		{"PipelineParallel/workers=4", pipelineBench(4)},
		{"PipelineParallel/workers=8", pipelineBench(8)},
		{"ForestFitParallel/workers=1", forestFitBench(1)},
		{"ForestFitParallel/workers=4", forestFitBench(4)},
		{"ForestFitParallel/workers=8", forestFitBench(8)},
	}
	type row struct {
		Name        string  `json:"name"`
		N           int     `json:"n"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	rows := make([]row, 0, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(bench.Fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", bench.Name)
		}
		rows = append(rows, row{
			Name:        bench.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		t.Logf("%-28s %12.1f ns/op %8d B/op %6d allocs/op",
			bench.Name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark rows to %s", len(rows), path)
}
