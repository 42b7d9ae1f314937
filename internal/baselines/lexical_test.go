package baselines

import (
	"hash/fnv"
	"strings"
	"testing"

	"freephish/internal/features"
)

// referenceHashURL is the original fnv.New32a-based tokenizer URLNet
// shipped with. The optimized LexicalScorer.hashURL/ScoreURL must index
// the identical feature set or trained weights (and Table 2) shift.
func referenceHashURL(dims int, raw string) []uint32 {
	s := strings.ToLower(raw)
	var idx []uint32
	add := func(tok string) {
		h := fnv.New32a()
		h.Write([]byte(tok))
		idx = append(idx, h.Sum32()%uint32(dims))
	}
	for n := 3; n <= 4; n++ {
		for i := 0; i+n <= len(s); i++ {
			add("c:" + s[i:i+n])
		}
	}
	for _, w := range strings.FieldsFunc(s, func(r rune) bool {
		return r == '/' || r == '.' || r == '-' || r == '_' || r == '?' || r == '=' || r == ':' || r == '&'
	}) {
		if w != "" {
			add("w:" + w)
		}
	}
	return idx
}

var hashEquivURLs = []string{
	"",
	"a",
	"ab",
	"abc",
	"https://login-paypal.weebly.com/secure?id=42&token=abc",
	"HTTPS://MIXED.Case.Example/PATH_one-two.three",
	"https://example.com//double//slash..dots__under",
	"http://xn--nxasmq6b.example/ümläut/päth?q=€",
	"no-scheme-just-words",
	"trailing-separator/",
	"/leading-separator",
	"???===///",
}

func TestLexicalHashMatchesReference(t *testing.T) {
	l := NewLexicalScorer(1)
	for _, u := range hashEquivURLs {
		got := l.hashURL(u)
		want := referenceHashURL(l.Dims, u)
		if len(got) != len(want) {
			t.Fatalf("hashURL(%q): %d indices, reference %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hashURL(%q)[%d] = %d, reference %d", u, i, got[i], want[i])
			}
		}
	}
}

// ScoreURL accumulates weights inline without materializing the index
// slice; it must agree exactly with scoring via hashURL.
func TestScoreURLMatchesHashedProba(t *testing.T) {
	train, _ := groundTruth(t, 120, 5)
	l := NewLexicalScorer(5)
	if err := l.Train(train); err != nil {
		t.Fatalf("train: %v", err)
	}
	for _, u := range hashEquivURLs {
		if got, want := l.ScoreURL(u), l.proba(l.hashURL(u)); got != want {
			t.Fatalf("ScoreURL(%q) = %v, proba(hashURL) = %v", u, got, want)
		}
	}
	for _, s := range train[:20] {
		if got, want := l.ScoreURL(s.Page.URL), l.proba(l.hashURL(s.Page.URL)); got != want {
			t.Fatalf("ScoreURL(%q) = %v, proba(hashURL) = %v", s.Page.URL, got, want)
		}
	}
}

// URLNet is the LexicalScorer pinned to its historical RNG stream; the
// embedding must not change what NewURLNet trains or scores.
func TestURLNetEquivalentToLexicalWithURLNetKey(t *testing.T) {
	train, test := groundTruth(t, 160, 9)
	u := NewURLNet(9)
	l := &LexicalScorer{Dims: 1 << 14, Epochs: 6, LR: 0.15, Seed: 9, RNGKey: "baselines.urlnet"}
	if err := u.Train(train); err != nil {
		t.Fatalf("urlnet train: %v", err)
	}
	if err := l.Train(train); err != nil {
		t.Fatalf("lexical train: %v", err)
	}
	for _, s := range test {
		us, _ := u.Score(s.Page)
		ls, _ := l.Score(s.Page)
		if us != ls {
			t.Fatalf("Score(%q): urlnet %v, lexical %v", s.Page.URL, us, ls)
		}
	}
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{TierFull: "full", TierBenign: "benign", TierPhish: "phish"}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
	var zero Tier
	if zero != TierFull {
		t.Errorf("zero Tier = %v, want TierFull", zero)
	}
}

func TestCascadeTriageThresholds(t *testing.T) {
	l := NewLexicalScorer(1)
	l.w = make([]float64, l.Dims) // all-zero weights: every score is sigmoid(bias)
	c := &Cascade{Scorer: l, BenignBelow: 0.4, PhishAbove: 0.6}

	l.bias = -5 // score ≈ 0.0067 < 0.4
	if score, tier := c.Triage("http://x.example/a"); tier != TierBenign {
		t.Fatalf("low score %v triaged %v, want benign", score, tier)
	}
	l.bias = 5 // score ≈ 0.9933 > 0.6
	if score, tier := c.Triage("http://x.example/a"); tier != TierPhish {
		t.Fatalf("high score %v triaged %v, want phish", score, tier)
	}
	l.bias = 0 // score = 0.5, inside the band
	if score, tier := c.Triage("http://x.example/a"); tier != TierFull {
		t.Fatalf("uncertain score %v triaged %v, want full", score, tier)
	}
}

// The degenerate thresholds (0, 1) must never short-circuit — even at
// float saturation, where the stable sigmoid returns exactly 0.0 or 1.0 —
// because Triage compares strictly.
func TestCascadeDegenerateThresholdsNeverFire(t *testing.T) {
	l := NewLexicalScorer(1)
	l.w = make([]float64, l.Dims)
	c := &Cascade{Scorer: l, BenignBelow: 0, PhishAbove: 1}
	for _, bias := range []float64{-1e9, -40, 0, 40, 1e9} {
		l.bias = bias
		score, tier := c.Triage("http://x.example/a")
		if tier != TierFull {
			t.Fatalf("bias %v: score %v triaged %v, want full", bias, score, tier)
		}
	}
}

func TestParseCascadeThresholds(t *testing.T) {
	cases := []struct {
		spec   string
		lo, hi float64
		on     bool
		err    bool
	}{
		{"", 0, 0, false, false},
		{"off", 0, 0, false, false},
		{"OFF", 0, 0, false, false},
		{"none", 0, 0, false, false},
		{"false", 0, 0, false, false},
		{"on", DefaultBenignBelow, DefaultPhishAbove, true, false},
		{"default", DefaultBenignBelow, DefaultPhishAbove, true, false},
		{"0.1,0.9", 0.1, 0.9, true, false},
		{" 0.2 , 0.8 ", 0.2, 0.8, true, false},
		{"0,1", 0, 1, true, false},
		{"0.5,0.5", 0.5, 0.5, true, false},
		{"0.9,0.1", 0, 0, false, true},  // inverted band
		{"-0.1,0.9", 0, 0, false, true}, // below zero
		{"0.1,1.1", 0, 0, false, true},  // above one
		{"0.5", 0, 0, false, true},      // missing comma
		{"x,0.9", 0, 0, false, true},
		{"0.1,y", 0, 0, false, true},
	}
	for _, c := range cases {
		lo, hi, on, err := ParseCascadeThresholds(c.spec)
		if c.err {
			if err == nil || on {
				t.Errorf("ParseCascadeThresholds(%q) = (%v, %v, %v, %v): want an error and the cascade off", c.spec, lo, hi, on, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCascadeThresholds(%q): %v", c.spec, err)
			continue
		}
		if lo != c.lo || hi != c.hi || on != c.on {
			t.Errorf("ParseCascadeThresholds(%q) = (%v, %v, %v), want (%v, %v, %v)", c.spec, lo, hi, on, c.lo, c.hi, c.on)
		}
	}
}

func TestEvaluateCascadeTradeoff(t *testing.T) {
	train, test := groundTruth(t, 400, 11)
	l := NewLexicalScorer(11)
	if err := l.Train(train); err != nil {
		t.Fatalf("lexical train: %v", err)
	}
	full := NewFreePhishModel(11)
	if err := full.Train(train); err != nil {
		t.Fatalf("full train: %v", err)
	}
	c := &Cascade{Scorer: l, BenignBelow: DefaultBenignBelow, PhishAbove: DefaultPhishAbove}
	r, err := EvaluateCascade(c, full, test)
	if err != nil {
		t.Fatalf("EvaluateCascade: %v", err)
	}
	t.Logf("cascade %s vs full %s; tiers benign=%d phish=%d full=%d; fetches avoided %.1f%%",
		r.Metrics, r.FullMetrics, r.Benign, r.Phish, r.Uncertain, 100*r.FetchesAvoided)
	if got := r.Benign + r.Phish + r.Uncertain; got != len(test) {
		t.Fatalf("tier counts sum to %d, want %d", got, len(test))
	}
	if r.SampleCount != len(test) {
		t.Fatalf("SampleCount = %d, want %d", r.SampleCount, len(test))
	}
	if want := float64(r.Benign+r.Phish) / float64(len(test)); r.FetchesAvoided != want {
		t.Fatalf("FetchesAvoided = %v, want %v", r.FetchesAvoided, want)
	}
	if r.Benign+r.Phish == 0 {
		t.Fatal("cascade never short-circuited at default thresholds")
	}
	// Degenerate cascade decisions must equal the full model's alone.
	d := &Cascade{Scorer: l, BenignBelow: 0, PhishAbove: 1}
	rd, err := EvaluateCascade(d, full, test)
	if err != nil {
		t.Fatalf("EvaluateCascade degenerate: %v", err)
	}
	if rd.Benign+rd.Phish != 0 {
		t.Fatalf("degenerate cascade short-circuited %d samples", rd.Benign+rd.Phish)
	}
	if rd.Metrics != rd.FullMetrics {
		t.Fatalf("degenerate cascade metrics %v != full metrics %v", rd.Metrics, rd.FullMetrics)
	}
}

// BenchmarkURLNetScore measures the fetch-free scoring hot path the
// cascade's triage stage runs per URL (satellite: hashURL micro-opt).
func BenchmarkURLNetScore(b *testing.B) {
	train, test := groundTruth(b, 200, 3)
	u := NewURLNet(3)
	if err := u.Train(train); err != nil {
		b.Fatalf("train: %v", err)
	}
	urls := make([]string, len(test))
	for i, s := range test {
		urls[i] = s.Page.URL
	}
	page := features.Page{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page.URL = urls[i%len(urls)]
		if _, err := u.Score(page); err != nil {
			b.Fatal(err)
		}
	}
}
