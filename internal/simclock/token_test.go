package simclock

import (
	"math/rand"
	"testing"
)

// tokenAlphabet returns an alphabet of n distinct-enough bytes; the byte
// values only need to tell positions apart modulo 256.
func tokenAlphabet(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return string(b)
}

// compareToken checks AppendToken against n calls of
// alphabet[Intn(len(alphabet))] on a math/rand twin of the stream, after
// skip other draws on both, and then that both streams stand at the same
// position.
func compareToken(t *testing.T, seed int64, alphabet string, n, skip int) {
	t.Helper()
	got := seededRNG(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < skip; i++ {
		got.Int63()
		want.Int63()
	}
	prefix := []byte("pre")
	tok := got.AppendToken(prefix, alphabet, n)
	if string(tok[:len(prefix)]) != "pre" || len(tok) != len(prefix)+n {
		t.Fatalf("seed %d, |alphabet| %d, n %d: AppendToken returned %d bytes, lost the prefix or miscounted", seed, len(alphabet), n, len(tok))
	}
	for i := 0; i < n; i++ {
		if w := alphabet[want.Intn(len(alphabet))]; tok[len(prefix)+i] != w {
			t.Fatalf("seed %d, |alphabet| %d, n %d, after %d draws: byte %d = %#x, Intn gives %#x",
				seed, len(alphabet), n, skip, i, tok[len(prefix)+i], w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d, |alphabet| %d, n %d, after %d draws: next Int63 = %d, twin gives %d",
			seed, len(alphabet), n, skip, g, w)
	}
}

// TestAppendTokenMatchesIntn covers alphabet lengths on both of Int31n's
// branches (powers of two and not, 36 being webgen's), token lengths that
// end inside, at and past the lazy source's 273-draw window, and prior
// draws that start a token just before the window's end or after the
// state vector was built.
func TestAppendTokenMatchesIntn(t *testing.T) {
	lengths := []int{1, 2, 3, 7, 16, 36, 62, 64, 100, 128, 255, 256, 257, 300}
	sizes := []int{0, 1, 28, 96, 272, 273, 274, 600}
	skips := []int{0, 1, 250, 272, 273, 700}
	for _, seed := range []int64{0, 1, 7, -3, fnvSeed(1, "webgen.post.event.17")} {
		for _, l := range lengths {
			alphabet := tokenAlphabet(l)
			for _, n := range sizes {
				for _, skip := range skips {
					compareToken(t, seed, alphabet, n, skip)
				}
			}
		}
	}
}

// countingSource counts the draws made from a math/rand source.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source.Int63() }

// TestAppendTokenReplaysRejections checks Int31n's rejection loop, which
// short alphabets almost never enter: with a 3 MiB alphabet about one draw
// in 1,024 is rejected, so 20,000 bytes need extra draws, and AppendToken
// must make exactly the same ones.
func TestAppendTokenReplaysRejections(t *testing.T) {
	alphabet := tokenAlphabet(3 << 20)
	const n = 20000
	for _, seed := range []int64{1, 7} {
		src := &countingSource{Source: rand.NewSource(seed)}
		r := rand.New(src)
		for i := 0; i < n; i++ {
			r.Intn(len(alphabet))
		}
		if src.n == n {
			t.Fatalf("seed %d: %d bytes took no rejected draw; the test no longer reaches the loop", seed, n)
		}
		compareToken(t, seed, alphabet, n, 5)
	}
}

func TestTokenMatchesAppendToken(t *testing.T) {
	const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
	for _, n := range []int{0, 7, 64, 65, 300} {
		a, b := seededRNG(3), seededRNG(3)
		if got, want := a.Token(alnum, n), string(b.AppendToken(nil, alnum, n)); got != want {
			t.Fatalf("Token(%d) = %q, AppendToken gives %q", n, got, want)
		}
	}
}

func TestAppendTokenEmptyAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendToken with an empty alphabet did not panic")
		}
	}()
	seededRNG(1).AppendToken(nil, "", 3)
}

func FuzzAppendToken(f *testing.F) {
	f.Add(int64(1), uint16(36), uint16(28), uint16(0))
	f.Add(int64(7), uint16(64), uint16(273), uint16(0))
	f.Add(int64(-3), uint16(300), uint16(600), uint16(272))
	f.Add(int64(0), uint16(1), uint16(10), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, alphabetLen, n, skip uint16) {
		compareToken(t, seed, tokenAlphabet(1+int(alphabetLen)%300), int(n)%601, int(skip)%1000)
	})
}
