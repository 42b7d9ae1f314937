package freephish_test

// Streaming benchmarks: the same fetch → classify → apply workload run
// once with the old per-cycle barrier (fan out each phase, wait for all,
// then start the next) and once through the internal/pipe streaming
// engine at several queue depths. Fetch latency is injected so the
// streamed variant's phase overlap — classify and apply proceed while
// later fetches are still in flight — shows up as wall-clock, not just as
// a claim. TestWriteStreamBenchBaseline snapshots the numbers as
// machine-readable JSON (BENCH_pipeline.json) for bench-compare.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"freephish/internal/obs"
	"freephish/internal/pipe"
	"freephish/internal/simclock"
)

const (
	streamItems   = 96
	streamWorkers = 4
)

// streamDelays is the deterministic per-item fetch latency schedule:
// 1–3ms of jitter, the shape a remote snapshot endpoint produces.
func streamDelays(n int) []time.Duration {
	rng := simclock.NewRNG(7, "bench.stream")
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(1000+rng.Intn(2000)) * time.Microsecond
	}
	return out
}

// streamFetch simulates the I/O phase: sleep the scheduled latency, then
// hand back a payload derived from the index.
func streamFetch(d time.Duration, i int) uint64 {
	time.Sleep(d)
	return uint64(i)*2654435761 + 1
}

// streamClassify simulates the CPU phase with a fixed-cost mixing loop
// sized so the classify phase costs about as much as the fetch phase —
// the regime where phase overlap matters.
func streamClassify(v uint64) uint64 {
	for k := 0; k < 1<<20; k++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
	}
	return v
}

// streamWant is the checksum every variant must produce: the workload is
// only a fair benchmark if barrier and stream do identical work.
func streamWant() uint64 {
	var sum uint64
	for i := 0; i < streamItems; i++ {
		sum += streamClassify(uint64(i)*2654435761 + 1)
	}
	return sum
}

// barrierBench is the pre-streaming shape of core.pollOnce: fan out the
// fetch phase and wait for every item, fan out the classify phase and
// wait again, then apply sequentially.
func barrierBench(b *testing.B) {
	delays := streamDelays(streamItems)
	idx := make([]int, streamItems)
	for i := range idx {
		idx[i] = i
	}
	want := streamWant()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fetched, err := pipe.MapOrdered(streamWorkers, idx, func(_ int, i int) (uint64, error) {
			return streamFetch(delays[i], i), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		classified, err := pipe.MapOrdered(streamWorkers, fetched, func(_ int, v uint64) (uint64, error) {
			return streamClassify(v), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		var sum uint64
		for _, v := range classified {
			sum += v
		}
		if sum != want {
			b.Fatalf("checksum %d, want %d", sum, want)
		}
	}
}

// streamBench is the same workload on the streaming engine: items flow
// straight from fetch into classify into the ordered apply, bounded by
// the queue depth.
func streamBench(depth int) func(*testing.B) {
	return func(b *testing.B) {
		delays := streamDelays(streamItems)
		want := streamWant()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			p := pipe.New(context.Background(), pipe.Options{Name: "bench"})
			fetched := pipe.Stage(pipe.Range(p, depth, streamItems), "fetch", streamWorkers, depth,
				func(_ int, i int) (uint64, error) {
					return streamFetch(delays[i], i), nil
				})
			classified := pipe.Stage(fetched, "classify", streamWorkers, depth,
				func(_ int, v uint64) (uint64, error) {
					return streamClassify(v), nil
				})
			var sum uint64
			err := pipe.Drain(classified, func(_ int, v uint64) error {
				sum += v
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum != want {
				b.Fatalf("checksum %d, want %d", sum, want)
			}
		}
	}
}

// BenchmarkPipelineStream compares the per-phase barrier against the
// streamed pipeline under injected fetch latency. The streamed variants
// should win wall-clock because classify and apply overlap the remaining
// fetches; depth sweeps show how small a reorder window sustains it.
func BenchmarkPipelineStream(b *testing.B) {
	b.Run("barrier", barrierBench)
	for _, d := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("stream/depth=%d", d), streamBench(d))
	}
}

// streamTracedBench is streamBench at depth 4 with the journal's OnEmit
// hook in the state tracing leaves it: nil when disabled (the default for
// every study run without -journal/-dash), recording ops events into the
// bounded ring when enabled.
func streamTracedBench(traced bool) func(*testing.B) {
	return func(b *testing.B) {
		const depth = 4
		delays := streamDelays(streamItems)
		want := streamWant()
		var journal *obs.Journal
		var onEmit func(stage string, seq int, err error)
		if traced {
			journal = obs.NewJournal(nil, 0)
			onEmit = func(stage string, seq int, err error) {
				journal.RecordOps("", obs.EvStage, "pipe", "bench", "stage", stage)
			}
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			p := pipe.New(context.Background(), pipe.Options{Name: "bench", OnEmit: onEmit})
			fetched := pipe.Stage(pipe.Range(p, depth, streamItems), "fetch", streamWorkers, depth,
				func(_ int, i int) (uint64, error) {
					return streamFetch(delays[i], i), nil
				})
			classified := pipe.Stage(fetched, "classify", streamWorkers, depth,
				func(_ int, v uint64) (uint64, error) {
					return streamClassify(v), nil
				})
			var sum uint64
			err := pipe.Drain(classified, func(_ int, v uint64) error {
				sum += v
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum != want {
				b.Fatalf("checksum %d, want %d", sum, want)
			}
		}
	}
}

// BenchmarkPipelineStreamTraced quantifies the lifecycle-tracing tax on
// the streaming engine: "off" is the disabled state every untraced run
// pays (a nil hook — the acceptance bound is ≤2% over the untraced
// BenchmarkPipelineStream baseline), "on" adds one ring-buffered ops
// event per stage emission.
func BenchmarkPipelineStreamTraced(b *testing.B) {
	b.Run("off", streamTracedBench(false))
	b.Run("on", streamTracedBench(true))
}

// TestWriteStreamBenchBaseline runs the streaming benchmarks
// programmatically and writes machine-readable JSON, the same shape as
// TestWriteBenchBaseline, so bench-compare can diff barrier-vs-stream
// cost across commits:
//
//	BENCH_PIPELINE_JSON=BENCH_pipeline.json go test -run TestWriteStreamBenchBaseline .
func TestWriteStreamBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_PIPELINE_JSON")
	if path == "" {
		t.Skip("set BENCH_PIPELINE_JSON=<path> to write the streaming baseline")
	}
	benches := []struct {
		Name string
		Fn   func(*testing.B)
	}{
		{"PipelineStream/barrier", barrierBench},
		{"PipelineStream/stream/depth=1", streamBench(1)},
		{"PipelineStream/stream/depth=4", streamBench(4)},
		{"PipelineStream/stream/depth=64", streamBench(64)},
		{"PipelineStreamTraced/off", streamTracedBench(false)},
		{"PipelineStreamTraced/on", streamTracedBench(true)},
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
		t.Logf("%-32s %12.1f ns/op %8d B/op %6d allocs/op",
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
