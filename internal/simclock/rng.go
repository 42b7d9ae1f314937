package simclock

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// RNG is a named, deterministic random stream. Every stochastic component
// derives its stream from the run seed plus a stable name, so adding a new
// component never perturbs the draws of existing ones.
//
// The stream is rand.New(rand.NewSource(seed ^ FNV-1a(name))), draw for
// draw, but its source is seeded lazily (see lazySource): most streams draw
// a handful of values and never pay for math/rand's 4.9 KB state.
type RNG struct {
	mu  sync.Mutex
	src lazySource
	r   *rand.Rand
}

// NewRNG derives a stream from seed and a stable name.
func NewRNG(seed int64, name string) *RNG {
	return seededRNG(seed ^ int64(fnv64a(name)))
}

// seededRNG returns the stream rand.New(rand.NewSource(seed)) yields.
func seededRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// fnv64a is hash/fnv's 64-bit FNV-1a, inlined so that deriving a stream
// allocates no hasher and no byte copy of the name.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Intn(n)
}

// AppendToken appends n bytes drawn uniformly from alphabet to dst and
// returns the extended slice. It makes exactly the draws of n calls of
// alphabet[Intn(len(alphabet))], under one lock: it replays math/rand's
// Intn on the source, the power-of-two mask and Int31n's rejection loop
// included. It panics if alphabet is empty, as Intn(0) does, or if n < 0.
func (g *RNG) AppendToken(dst []byte, alphabet string, n int) []byte {
	if len(alphabet) == 0 || len(alphabet) > math.MaxInt32 {
		panic("simclock: AppendToken needs an alphabet of 1 to 2³¹−1 bytes")
	}
	m := int32(len(alphabet))
	dst = slices.Grow(dst, n)
	g.mu.Lock()
	defer g.mu.Unlock()
	if m&(m-1) == 0 {
		for range n {
			dst = append(dst, alphabet[int32(g.src.Int63()>>32)&(m-1)])
		}
		return dst
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	for range n {
		v := int32(g.src.Int63() >> 32)
		for v > limit {
			v = int32(g.src.Int63() >> 32)
		}
		dst = append(dst, alphabet[v%m])
	}
	return dst
}

// Token returns n bytes drawn from alphabet as AppendToken draws them.
func (g *RNG) Token(alphabet string, n int) string {
	var buf [64]byte
	return string(g.AppendToken(buf[:0], alphabet, n))
}

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Int63()
}

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.NormFloat64()
}

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.ExpFloat64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}

// LogNormal returns a draw from a log-normal distribution parameterized by
// the median of the distribution and sigma of the underlying normal. This is
// the canonical response-time model for anti-phishing entities: long right
// tail, strictly positive.
func (g *RNG) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(sigma*g.NormFloat64())
}

// Poisson returns a draw from a Poisson distribution with mean lambda,
// using Knuth's method for small lambda and a normal approximation above 30.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*g.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf draws an index in [0, n) with probability proportional to
// 1/(i+1)^s. It is used for brand-targeting and FWB-adoption skew: a few
// brands/services absorb most attacks, matching Figure 5 and Table 4.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("simclock: Zipf with n <= 0")
	}
	// Inverse-CDF over the normalized harmonic weights. n is small (tens to
	// hundreds) everywhere this is used, so the linear scan is fine.
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
	}
	u := g.Float64() * total
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += math.Pow(float64(i+1), -s)
		if u < acc {
			return i
		}
	}
	return n - 1
}

// WeightedIndex draws an index with probability proportional to weights[i].
// Zero or negative weights contribute nothing; if all weights are
// non-positive it returns 0.
func (g *RNG) WeightedIndex(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	u := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n indices, calling swap as rand.Shuffle does.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.r.Shuffle(n, swap)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Perm(n)
}
