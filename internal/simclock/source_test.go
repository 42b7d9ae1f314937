package simclock

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fnvSeed is the seed NewRNG(base, name) gives its source, computed with
// hash/fnv rather than the inlined fnv64a.
func fnvSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64())
}

// equivalenceSeeds covers math/rand's seed reduction: zero (which it
// replaces with 89482311), signs, the modulus 2³¹−1 and its multiples, the
// int64 extremes, and seeds NewRNG actually derives.
var equivalenceSeeds = []int64{
	0, 1, -1, 7, lehmerM, -lehmerM, 2 * lehmerM, lehmerM - 1, lehmerM + 1, 89482311,
	math.MinInt64, math.MaxInt64,
	fnvSeed(1, "world.sites"), fnvSeed(7, "social.posts"), fnvSeed(1, ""),
	fnvSeed(-3, "baselines.shuffle"),
}

// equivalenceDraws straddles both boundaries of the lazy source: the
// 273-draw seeded window and the 607-word vector.
var equivalenceDraws = []int{0, 1, 272, 273, 274, 606, 607, 608, 5000}

// compareSources draws n values from a fresh lazy source and from
// rand.NewSource, alternating Uint64 and Int63, and fails on the first
// difference.
func compareSources(t *testing.T, seed int64, n int) {
	t.Helper()
	var got lazySource
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i+1, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i+1, g, w)
		}
	}
}

// rngScript calls every RNG method once and records what each returned.
func rngScript(g *RNG) []float64 {
	out := []float64{
		g.Float64(), float64(g.Intn(10)), float64(g.Intn(1 << 40)), float64(g.Int63()),
		g.NormFloat64(), g.NormFloat64(), g.ExpFloat64(), g.ExpFloat64(),
		float64(g.Poisson(3.5)), float64(g.Poisson(80)), float64(g.Zipf(40, 1.2)),
		g.LogNormal(2, 0.5), float64(g.WeightedIndex([]float64{1, 0, 3, 2})),
	}
	if g.Bool(0.4) {
		out = append(out, 1)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	g.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	for _, v := range idx {
		out = append(out, float64(v))
	}
	for _, v := range g.Perm(9) {
		out = append(out, float64(v))
	}
	return out
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		for _, n := range equivalenceDraws {
			compareSources(t, seed, n)
		}
	}
}

// TestRNGMatchesMathRand runs every RNG method on a lazily seeded stream
// and on one backed by rand.NewSource, after each boundary draw count, and
// then long enough for single calls (Perm, Shuffle) to cross the window.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		for _, n := range equivalenceDraws {
			got := seededRNG(seed)
			want := &RNG{r: rand.New(rand.NewSource(seed))}
			for i := 0; i < n; i++ {
				got.Int63()
				want.Int63()
			}
			for round := 0; round < 30; round++ {
				g, w := rngScript(got), rngScript(want)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("seed %d after %d draws, round %d:\n got %v\nwant %v", seed, n, round, g, w)
				}
			}
			if g, w := got.Perm(700), want.Perm(700); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("seed %d after %d draws: Perm(700) differs", seed, n)
			}
		}
	}
}

// TestNewRNGMatchesHashFNV pins NewRNG's name hashing to hash/fnv.
func TestNewRNGMatchesHashFNV(t *testing.T) {
	for _, name := range []string{"", "x", "blocklist.gsb", "world.site/ünïcode", "\xff\x00"} {
		got := NewRNG(11, name)
		want := rand.New(rand.NewSource(fnvSeed(11, name)))
		for i := 0; i < 300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("name %q: draw %d = %d, want %d", name, i, g, w)
			}
		}
	}
}

func FuzzLazySource(f *testing.F) {
	for _, seed := range equivalenceSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(42), uint16(273))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compareSources(t, seed, int(n)%5000)
	})
}

// TestNewRNGAllocBudget pins the point of the lazy source: a stream that
// draws a few values costs a few dozen bytes, not math/rand's 5,376.
func TestNewRNGAllocBudget(t *testing.T) {
	const streams, draws, budget = 1000, 8, 256 << 10
	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("url.%d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, name := range names {
		g := NewRNG(1, name)
		for i := 0; i < draws; i++ {
			benchSink += g.Int63()
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("%d streams of %d draws allocated %d B, budget %d B", streams, draws, got, budget)
	}
}

// benchSink keeps measured draws observable to the compiler.
var benchSink int64

// BenchmarkNewRNG derives a stream and draws from it. The mathrand cases
// are the same streams on rand.NewSource, for comparison.
func BenchmarkNewRNG(b *testing.B) {
	for _, draws := range []int{8, 2000} {
		b.Run(fmt.Sprintf("lazy/draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewRNG(int64(i), "bench")
				for j := 0; j < draws; j++ {
					benchSink += g.Int63()
				}
			}
		})
		b.Run(fmt.Sprintf("mathrand/draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := &RNG{r: rand.New(rand.NewSource(fnvSeed(int64(i), "bench")))}
				for j := 0; j < draws; j++ {
					benchSink += g.Int63()
				}
			}
		})
	}
}
