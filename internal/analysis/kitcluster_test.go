package analysis

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"freephish/internal/webgen"
)

func TestPageSignatureExtractsClassesAndResources(t *testing.T) {
	html := `<html><head><link rel="stylesheet" href="assets/xb-style.css"></head>
<body><div class="xb-wrapper main" data-kid="r4nd0m"><p class="xb-text">x</p></div>
<script src="assets/xb-anti.js"></script></body></html>`
	sig := PageSignature(html)
	for _, want := range []string{"c:xb-wrapper", "c:main", "c:xb-text", "r:assets/xb-style.css", "r:assets/xb-anti.js"} {
		if !slices.Contains(sig, want) {
			t.Errorf("signature missing %q: %v", want, sig)
		}
	}
	if slices.Contains(sig, "c:r4nd0m") {
		t.Error("random data attribute leaked into signature")
	}
}

func TestJaccard(t *testing.T) {
	a := Signature{"x", "y"}
	b := Signature{"y", "z"}
	if got := Jaccard(a, b); got != 1.0/3.0 {
		t.Fatalf("jaccard = %v", got)
	}
	if Jaccard(a, a) != 1 {
		t.Fatal("self-jaccard != 1")
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatal("empty-empty != 1")
	}
	if Jaccard(a, nil) != 0 {
		t.Fatal("a vs empty != 0")
	}
}

func TestClusterSignaturesGreedy(t *testing.T) {
	sigs := []Signature{
		{"a", "b"},
		{"a", "b", "c"}, // joins cluster 0 (jaccard 2/3)
		{"x", "y"},      // new cluster
		{"a", "b"},      // joins cluster 0
	}
	clusters := ClusterSignatures(sigs, 0.5)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if len(clusters[0]) != 3 || len(clusters[1]) != 1 {
		t.Fatalf("cluster sizes = %v", clusters)
	}
}

func TestKitFamiliesRecoveredFromGeneratedPages(t *testing.T) {
	// Generate a mixed self-hosted corpus: kit-built pages plus hand-rolled
	// ones, then recover the kit families from markup signatures alone.
	g := webgen.NewGenerator(17, nil, nil)
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	var sigs []Signature
	var labels []string
	for i := 0; i < 80; i++ {
		site, kitName := g.SelfHostedKitPhishing(at)
		sigs = append(sigs, PageSignature(site.HTML))
		labels = append(labels, kitName)
	}
	for i := 0; i < 20; i++ {
		site := g.SelfHostedPhishing(at)
		sigs = append(sigs, PageSignature(site.HTML))
		labels = append(labels, "hand-rolled")
	}
	clusters := ClusterSignatures(sigs, 0.5)
	purity := ClusterPurity(clusters, labels)
	t.Logf("clusters=%d purity=%.3f (kit market: %v)", len(clusters), purity, webgen.KitNames())
	if purity < 0.95 {
		t.Fatalf("kit-family purity = %.3f, want >= 0.95", purity)
	}
	// The kit families should dominate: the largest clusters must be
	// multi-page kit families, not singletons.
	if len(clusters[0]) < 15 {
		t.Fatalf("largest family has %d pages, want a dominant kit", len(clusters[0]))
	}
	// Hand-rolled pages (fully random classes) must not glue together.
	for _, c := range clusters {
		if labels[c[0]] == "hand-rolled" && len(c) > 3 {
			t.Fatalf("hand-rolled pages formed a %d-page cluster", len(c))
		}
	}
}

func TestClusterPurityDegenerate(t *testing.T) {
	if ClusterPurity(nil, nil) != 0 {
		t.Fatal("empty purity should be 0")
	}
	if p := ClusterPurity([][]int{{0, 1}}, []string{"a", "b"}); p != 0.5 {
		t.Fatalf("purity = %v, want 0.5", p)
	}
}

// referenceJaccard and referenceClusters are the map-based Jaccard and the
// plain greedy loop ClusterSignatures replaced, kept to check the sorted
// signatures and the token index against.
func referenceJaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func referenceClusters(sigs []map[string]bool, threshold float64) [][]int {
	var leaders []int
	var clusters [][]int
	for i, sig := range sigs {
		placed := false
		for c, leader := range leaders {
			if referenceJaccard(sig, sigs[leader]) >= threshold {
				clusters[c] = append(clusters[c], i)
				placed = true
				break
			}
		}
		if !placed {
			leaders = append(leaders, i)
			clusters = append(clusters, []int{i})
		}
	}
	sort.SliceStable(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
	return clusters
}

// mapForm is sig as the map of tokens to true it replaced; nil stays nil.
func mapForm(sig Signature) map[string]bool {
	if sig == nil {
		return nil
	}
	m := make(map[string]bool, len(sig))
	for _, tok := range sig {
		m[tok] = true
	}
	return m
}

func checkClustersMatchReference(t *testing.T, sigs []Signature, threshold float64) {
	t.Helper()
	maps := make([]map[string]bool, len(sigs))
	for i, sig := range sigs {
		maps[i] = mapForm(sig)
	}
	got, want := ClusterSignatures(sigs, threshold), referenceClusters(maps, threshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("threshold %v: clusters %v, reference %v", threshold, got, want)
	}
}

// kitCorpus is n self-hosted attack pages' signatures, kit-built and
// hand-rolled in the market's mix.
func kitCorpus(seed int64, n int) []Signature {
	g := webgen.NewGenerator(seed, nil, nil)
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	sigs := make([]Signature, n)
	for i := range sigs {
		site, _ := g.SelfHostedAttack(at)
		sigs[i] = PageSignature(site.HTML)
	}
	return sigs
}

// TestClusterSignaturesMatchesReference checks the token-indexed
// clustering against the plain loop on generated pages with empty and
// missing signatures among them, at thresholds on both sides of 0 and 1.
func TestClusterSignaturesMatchesReference(t *testing.T) {
	sigs := kitCorpus(3, 300)
	g := webgen.NewGenerator(4, nil, nil)
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		sigs = append(sigs, PageSignature(g.BenignSelfHosted(at).HTML))
	}
	sigs = append(sigs, Signature{}, nil, Signature{}, PageSignature(""))
	sigs = append([]Signature{{}}, sigs...)
	sigs = append(sigs, sigs[5], sigs[17], nil)
	for _, th := range []float64{-1, 0, 0.05, 0.25, 0.5, 0.75, 0.9, 1, 1.5, math.NaN()} {
		checkClustersMatchReference(t, sigs, th)
	}
}

// FuzzClusterSignaturesMatchesReference builds signatures over a small
// token vocabulary, so they overlap often, from the fuzzer's bytes: 0xff
// starts a new signature and any other byte adds one of 12 tokens.
func FuzzClusterSignaturesMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 0, 1, 0xff, 3, 4, 0xff, 0xff, 0, 1, 2, 5}, uint8(100))
	f.Add([]byte{0xff, 0xff, 1, 0xff}, uint8(220))
	f.Add([]byte{0, 0xff, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, th uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		sigs := []Signature{{}}
		for _, b := range data {
			last := &sigs[len(sigs)-1]
			if b == 0xff {
				sigs = append(sigs, Signature{})
				continue
			}
			tok := fmt.Sprintf("c:t%02d", b%12)
			if i, found := slices.BinarySearch(*last, tok); !found {
				*last = slices.Insert(*last, i, tok)
			}
		}
		checkClustersMatchReference(t, sigs, float64(th)/200-0.1)
	})
}

var clustersSink [][]int

// BenchmarkClusterSignatures clusters 3,000 self-hosted attack pages at
// the study's threshold, through the token index and the plain scan.
func BenchmarkClusterSignatures(b *testing.B) {
	sigs := kitCorpus(1, 3000)
	for _, bc := range []struct {
		name string
		fn   func([]Signature, float64) [][]int
	}{{"index", indexLeaders}, {"scan", scanLeaders}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clustersSink = bc.fn(sigs, 0.5)
			}
		})
	}
}
