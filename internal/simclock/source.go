package simclock

// lazySource is a rand.Source64 that returns exactly what
// rand.NewSource(seed) returns, draw for draw, without paying math/rand's
// seeding cost up front.
//
// math/rand's rngSource is an additive lagged Fibonacci generator over a
// 607-word state vector. Seeding fills word i with rngCooked[i] XOR three
// consecutive outputs of the Lehmer generator x ← 48271·x mod (2³¹−1),
// after a 20-step warm-up: 1,841 serial steps and a 4.9 KB vector, even
// for a stream that draws three values. Two facts make that avoidable:
//
//   - The Lehmer generator is a pure power: its n-th output is
//     x0·48271ⁿ mod (2³¹−1). With the powers tabulated once per process,
//     any seed word is three independent multiplications.
//   - Draw k (1-based) reads vec[334−k] and vec[607−k] and writes the sum
//     back to vec[334−k]. For k ≤ 273 neither read touches a word an
//     earlier draw wrote, so each of those draws is the sum of two seed
//     words and needs no state beyond x0 and a counter.
//
// On draw 274 the source builds the full vector, replays the first 273
// writes, and continues exactly as rngSource does. The zero value is not
// usable; call Seed first.
type lazySource struct {
	x0 uint64    // seed reduced to [1, 2³¹−1), as rngSource.Seed reduces it
	n  int       // draws served from the seeded window, at most rngTap
	st *rngState // the full generator, once a draw leaves the window
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// lehmerWarmup is the index of the Lehmer output that starts vec[0]:
	// rngSource.Seed discards the first 20.
	lehmerWarmup = 21
)

// lehmerPow[n] is 48271ⁿ mod (2³¹−1), for every n the seed loop reaches.
var lehmerPow = func() (p [lehmerWarmup + 3*rngLen]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * lehmerA % lehmerM
	}
	return p
}()

// rngState is math/rand's rngSource state.
type rngState struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the source to the stream rand.NewSource(seed) yields.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n, s.st = uint64(seed), 0, nil
}

// seedWord is vec[i] as rngSource.Seed leaves it.
func (s *lazySource) seedWord(i int) int64 {
	n := lehmerWarmup + 3*i
	u := int64(mulModM(s.x0, lehmerPow[n])) << 40
	u ^= int64(mulModM(s.x0, lehmerPow[n+1])) << 20
	u ^= int64(mulModM(s.x0, lehmerPow[n+2]))
	return u ^ rngCooked[i]
}

// mulModM returns a·b mod (2³¹−1) for a, b < 2³¹, folding the high bits
// down since 2³¹ ≡ 1.
func mulModM(a, b uint64) uint64 {
	v := a * b
	v = v&lehmerM + v>>31
	if v >= lehmerM {
		v -= lehmerM
	}
	return v
}

// Uint64 returns the next draw of the stream.
func (s *lazySource) Uint64() uint64 {
	if st := s.st; st != nil {
		return st.next()
	}
	return s.windowDraw()
}

// windowDraw serves a draw while the source has no state vector: from seed
// words inside the window, else by building the vector.
func (s *lazySource) windowDraw() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.seedWord(rngLen-rngTap-s.n) + s.seedWord(rngLen-s.n))
	}
	st := &rngState{feed: rngLen - rngTap}
	for i := range st.vec {
		st.vec[i] = s.seedWord(i)
	}
	for range rngTap {
		st.next()
	}
	s.st = st
	return st.next()
}

// Int63 returns the next draw with its top bit cleared.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// next is rngSource.Uint64.
func (st *rngState) next() uint64 {
	st.tap--
	if st.tap < 0 {
		st.tap += rngLen
	}
	st.feed--
	if st.feed < 0 {
		st.feed += rngLen
	}
	x := st.vec[st.feed] + st.vec[st.tap]
	st.vec[st.feed] = x
	return uint64(x)
}
