package baselines

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"freephish/internal/features"
	"freephish/internal/fwb"
	"freephish/internal/htmlx"
	"freephish/internal/simclock"
	"freephish/internal/webgen"
)

var at = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

// groundTruth builds a balanced labeled corpus mirroring the paper's
// dataset construction: FWB phishing (all variants, Table 4 service mix)
// against benign FWB sites.
func groundTruth(t testing.TB, n int, seed int64) (train, test []LabeledPage) {
	t.Helper()
	g := webgen.NewGenerator(seed, nil, nil)
	var all []LabeledPage
	for i := 0; i < n/2; i++ {
		p := g.PhishingFWBSite(g.PickService(), at)
		all = append(all, LabeledPage{Page: features.Page{URL: p.URL, HTML: p.HTML}, Label: 1})
		b := g.BenignFWBSite(g.PickServiceUniform(), at)
		all = append(all, LabeledPage{Page: features.Page{URL: b.URL, HTML: b.HTML}, Label: 0})
	}
	rng := simclock.NewRNG(seed, "baselines.split")
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := int(float64(len(all)) * 0.7)
	return all[:cut], all[cut:]
}

func trainEval(t *testing.T, d Detector, train, test []LabeledPage) Result {
	t.Helper()
	if err := d.Train(train); err != nil {
		t.Fatalf("%s train: %v", d.Name(), err)
	}
	r, err := Evaluate(d, test)
	if err != nil {
		t.Fatalf("%s eval: %v", d.Name(), err)
	}
	t.Logf("%-34s %s median=%v", r.Model, r.Metrics, r.MedianTime)
	return r
}

func TestURLNetLearnsButWeakly(t *testing.T) {
	train, test := groundTruth(t, 600, 3)
	r := trainEval(t, NewURLNet(3), train, test)
	if r.Metrics.Accuracy < 0.55 {
		t.Fatalf("URLNet accuracy = %.3f, should beat chance", r.Metrics.Accuracy)
	}
}

func TestVisualPhishNetModerate(t *testing.T) {
	train, test := groundTruth(t, 600, 5)
	r := trainEval(t, NewVisualPhishNet(), train, test)
	if r.Metrics.Accuracy < 0.60 {
		t.Fatalf("VisualPhishNet accuracy = %.3f", r.Metrics.Accuracy)
	}
}

func TestPhishIntentionStrong(t *testing.T) {
	train, test := groundTruth(t, 600, 7)
	r := trainEval(t, NewPhishIntention(7), train, test)
	if r.Metrics.Accuracy < 0.90 {
		t.Fatalf("PhishIntention accuracy = %.3f, want >= 0.90", r.Metrics.Accuracy)
	}
}

func TestFreePhishModelStrong(t *testing.T) {
	train, test := groundTruth(t, 600, 9)
	r := trainEval(t, NewFreePhishModel(9), train, test)
	if r.Metrics.Accuracy < 0.93 {
		t.Fatalf("FreePhish accuracy = %.3f, want >= 0.93 (paper: 0.97)", r.Metrics.Accuracy)
	}
}

func TestTable2Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full bake-off is slow")
	}
	train, test := groundTruth(t, 800, 11)
	urlnet := trainEval(t, NewURLNet(11), train, test)
	vpn := trainEval(t, NewVisualPhishNet(), train, test)
	pi := trainEval(t, NewPhishIntention(11), train, test)
	base := trainEval(t, NewBaseStackModel(11), train, test)
	ours := trainEval(t, NewFreePhishModel(11), train, test)

	// Quality shape (Table 2): URLNet and VisualPhishNet trail; the
	// full-page models lead; ours >= base.
	if urlnet.Metrics.F1 >= ours.Metrics.F1 {
		t.Errorf("URLNet F1 %.3f >= ours %.3f", urlnet.Metrics.F1, ours.Metrics.F1)
	}
	if vpn.Metrics.F1 >= ours.Metrics.F1 {
		t.Errorf("VisualPhishNet F1 %.3f >= ours %.3f", vpn.Metrics.F1, ours.Metrics.F1)
	}
	if ours.Metrics.F1+0.02 < base.Metrics.F1 {
		t.Errorf("ours F1 %.3f materially below base %.3f", ours.Metrics.F1, base.Metrics.F1)
	}
	// Runtime shape (Table 2): URLNet fastest; PhishIntention slowest of
	// the accurate models.
	if urlnet.MedianTime >= pi.MedianTime {
		t.Errorf("URLNet median %v >= PhishIntention %v", urlnet.MedianTime, pi.MedianTime)
	}
	if pi.MedianTime <= ours.MedianTime {
		t.Errorf("PhishIntention median %v <= ours %v — should be the slow accurate model", pi.MedianTime, ours.MedianTime)
	}
}

func TestURLNetIgnoresHTML(t *testing.T) {
	train, test := groundTruth(t, 300, 13)
	u := NewURLNet(13)
	if err := u.Train(train); err != nil {
		t.Fatal(err)
	}
	p := test[0].Page
	s1, _ := u.Score(p)
	p.HTML = "<html><body>completely different content</body></html>"
	s2, _ := u.Score(p)
	if s1 != s2 {
		t.Fatal("URLNet must depend only on the URL string")
	}
}

func TestVisualPhishNetIgnoresURL(t *testing.T) {
	train, test := groundTruth(t, 300, 15)
	v := NewVisualPhishNet()
	if err := v.Train(train); err != nil {
		t.Fatal(err)
	}
	p := test[0].Page
	s1, _ := v.Score(p)
	p.URL = "https://totally-different.example.org/x"
	s2, _ := v.Score(p)
	if s1 != s2 {
		t.Fatal("VisualPhishNet must depend only on rendered appearance")
	}
}

func TestRenderLayoutProperties(t *testing.T) {
	// Hidden subtrees are pruned: the hidden iframe variant looks benign to
	// a pure visual model — the §5.5 evasion working as designed.
	visible := `<html><body><iframe src="https://a.example/x"></iframe></body></html>`
	hidden := `<html><body><div style="display:none"><iframe src="https://a.example/x"></iframe></div></body></html>`
	ev := renderLayout(parseDoc(visible), gridRows)
	eh := renderLayout(parseDoc(hidden), gridRows)
	var frameMassV, frameMassH float64
	for r := 0; r < gridRows; r++ {
		frameMassV += ev[chFrame*gridRows+r]
		frameMassH += eh[chFrame*gridRows+r]
	}
	if frameMassV == 0 {
		t.Fatal("visible iframe contributed no mass")
	}
	if frameMassH != 0 {
		t.Fatal("hidden iframe should be invisible to the renderer")
	}
}

func TestRenderLayoutEmptyDoc(t *testing.T) {
	emb := renderLayout(parseDoc(""), gridRows)
	for _, v := range emb {
		if v != 0 {
			t.Fatal("empty document must produce zero embedding")
		}
	}
}

func TestCosineBounds(t *testing.T) {
	a := embedding{1, 0, 0}
	b := embedding{0, 1, 0}
	if cosine(a, a) != 1 {
		t.Fatal("self-cosine != 1")
	}
	if cosine(a, b) != 0 {
		t.Fatal("orthogonal cosine != 0")
	}
}

func BenchmarkScoreURLNet(b *testing.B) { benchScore(b, NewURLNet(1)) }
func BenchmarkScoreVisual(b *testing.B) { benchScore(b, NewVisualPhishNet()) }
func BenchmarkScoreIntent(b *testing.B) { benchScore(b, NewPhishIntention(1)) }

func benchScore(b *testing.B, d Detector) {
	train, test := groundTruth(b, 300, 17)
	if err := d.Train(train); err != nil {
		b.Fatal(err)
	}
	p := test[0].Page
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Score(p); err != nil {
			b.Fatal(err)
		}
	}
}

func parseDoc(s string) *htmlx.Node { return htmlx.Parse(s) }

func TestPhishIntentionDynamicHopCatchesTwoStep(t *testing.T) {
	// Host a world where two-step chains resolve, then compare
	// PhishIntention's two-step recall with and without the dynamic pass.
	now := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	host := fwb.NewHost(func() time.Time { return now })
	g := webgen.NewGenerator(29, nil, nil)
	g.OnSecondary = func(s *fwb.Site) { _ = host.Publish(s) }

	fetch := func(url string) (features.Page, int, error) {
		site := host.Lookup(url)
		if site == nil {
			return features.Page{}, 404, nil
		}
		return features.Page{URL: url, HTML: site.HTML}, 200, nil
	}

	gs, _ := fwb.ByKey("googlesites")
	var train []LabeledPage
	var twoStepTests []LabeledPage
	for i := 0; i < 250; i++ {
		p := g.PhishingFWBSite(g.PickService(), now)
		train = append(train, LabeledPage{Page: features.Page{URL: p.URL, HTML: p.HTML}, Label: 1})
		b := g.BenignFWBSite(g.PickServiceUniform(), now)
		train = append(train, LabeledPage{Page: features.Page{URL: b.URL, HTML: b.HTML}})
	}
	for i := 0; i < 60; i++ {
		ts := g.PhishingFWBSiteOf(gs, fwb.KindTwoStep, now)
		twoStepTests = append(twoStepTests, LabeledPage{Page: features.Page{URL: ts.URL, HTML: ts.HTML}, Label: 1})
	}

	withHop := NewPhishIntention(29)
	withHop.Fetch = fetch
	if err := withHop.Train(train); err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(withHop, twoStepTests)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Recall < 0.8 {
		t.Fatalf("dynamic-hop two-step recall = %.3f, want >= 0.8", r.Metrics.Recall)
	}
	// The hop feature must actually fire on a resolvable chain.
	ts := g.PhishingFWBSiteOf(gs, fwb.KindTwoStep, now)
	vec := withHop.vectorize(features.Page{URL: ts.URL, HTML: ts.HTML})
	// linkedCredential is the 8th intention feature from the end of the
	// 10-feature block (before the dynamic-diff scalar).
	intention := vec[len(vec)-11 : len(vec)-1]
	if intention[7] != 1 {
		t.Fatalf("linkedCredential feature = %v, want 1 (intention block %v)", intention[7], intention)
	}
}

func TestStackDetectorSaveLoad(t *testing.T) {
	train, test := groundTruth(t, 240, 67)
	d := NewFreePhishModel(67)
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStackDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != d.Name() {
		t.Fatalf("label lost: %q", restored.Name())
	}
	for _, s := range test[:20] {
		a, err1 := d.Score(s.Page)
		b, err2 := restored.Score(s.Page)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("detector diverged after round trip: %v/%v (%v %v)", a, b, err1, err2)
		}
	}
	if _, err := LoadStackDetector(strings.NewReader(`{"label":"x"}`)); err == nil {
		t.Fatal("payload without model accepted")
	}
	// A feature view that does not match the model's width is rejected:
	// Score would build vectors of the wrong length.
	buf.Reset()
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto stackDetectorDTO
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	dto.Names = dto.Names[1:]
	short, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStackDetector(bytes.NewReader(short)); err == nil {
		t.Fatal("payload with fewer feature names than the model accepted")
	}
}

func TestEvaluateReportsAUC(t *testing.T) {
	train, test := groundTruth(t, 300, 71)
	d := NewURLNet(71)
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(d, test)
	if err != nil {
		t.Fatal(err)
	}
	if r.AUC <= 0.5 || r.AUC > 1 {
		t.Fatalf("URLNet AUC = %.3f, want above chance", r.AUC)
	}
}
