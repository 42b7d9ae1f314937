package ml

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"freephish/internal/simclock"
)

// synthDataset builds a nonlinearly separable binary problem: y = 1 when
// the point is inside one of two boxes, with label noise.
func synthDataset(n int, noise float64, seed int64) *Dataset {
	rng := simclock.NewRNG(seed, "ml.synth")
	d := &Dataset{Names: []string{"a", "b", "c", "d"}}
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0
		if (x[0] > 0.6 && x[1] > 0.5) || (x[2] < 0.3 && x[3] > 0.7) {
			y = 1
		}
		if rng.Bool(noise) {
			y = 1 - y
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0}, Names: []string{"a", "b"}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0}, Names: []string{"a", "b"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("shape mismatch not caught")
	}
	bad2 := &Dataset{X: [][]float64{{1, 2}}, Y: []int{7}, Names: []string{"a", "b"}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("non-binary label not caught")
	}
	bad3 := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0, 1}, Names: []string{"a", "b"}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("row/label count mismatch not caught")
	}
}

func TestSplitSizes(t *testing.T) {
	d := synthDataset(100, 0, 1)
	rng := simclock.NewRNG(1, "split")
	train, test := d.Split(0.7, rng)
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
}

func TestKFoldCoversAllDisjointly(t *testing.T) {
	rng := simclock.NewRNG(3, "kfold")
	folds := KFold(103, 5, rng)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		trainSet := map[int]bool{}
		for _, i := range f[0] {
			trainSet[i] = true
		}
		for _, i := range f[1] {
			seen[i]++
			if trainSet[i] {
				t.Fatal("test index appears in its own train fold")
			}
		}
		if len(f[0])+len(f[1]) != 103 {
			t.Fatalf("fold sizes %d + %d != 103", len(f[0]), len(f[1]))
		}
	}
	if len(seen) != 103 {
		t.Fatalf("test folds cover %d indices, want 103", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d in %d test folds", i, c)
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	for _, z := range []float64{-1000, -10, 0, 10, 1000} {
		p := sigmoid(z)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("sigmoid(%v) = %v", z, p)
		}
	}
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func testLearns(t *testing.T, c Classifier, minAcc float64) {
	t.Helper()
	d := synthDataset(1200, 0.02, 7)
	rng := simclock.NewRNG(7, "tt")
	train, test := d.Split(0.7, rng)
	if err := c.Fit(train); err != nil {
		t.Fatal(err)
	}
	m := Evaluate(c, test)
	if m.Accuracy < minAcc {
		t.Fatalf("accuracy = %.3f, want >= %.2f (%s)", m.Accuracy, minAcc, m)
	}
}

func TestGBDTLearns(t *testing.T)     { testLearns(t, NewGBDT(), 0.92) }
func TestXGBoostLearns(t *testing.T)  { testLearns(t, NewXGBoost(), 0.92) }
func TestLightGBMLearns(t *testing.T) { testLearns(t, NewLightGBM(), 0.90) }
func TestForestLearns(t *testing.T)   { testLearns(t, NewRandomForest(11), 0.92) }

func TestStackModelLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("stacking is slow")
	}
	testLearns(t, NewStackModel(11), 0.92)
}

func TestBoosterOnConstantLabels(t *testing.T) {
	d := &Dataset{Names: []string{"a"}}
	for i := 0; i < 50; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, 1)
	}
	gb := NewXGBoost()
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := gb.PredictProba([]float64{25}); p < 0.9 {
		t.Fatalf("constant-positive dataset predicts %v", p)
	}
}

func TestBoosterEmptyDataset(t *testing.T) {
	gb := NewGBDT()
	if err := gb.Fit(&Dataset{Names: []string{"a"}}); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	d := synthDataset(300, 0.05, 5)
	a, b := NewRandomForest(9), NewRandomForest(9)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := d.X[i]
		if a.PredictProba(x) != b.PredictProba(x) {
			t.Fatal("same-seed forests diverge")
		}
	}
}

func TestMetricsKnownValues(t *testing.T) {
	c := Confusion{TP: 40, FP: 10, TN: 45, FN: 5}
	m := c.Metrics()
	if math.Abs(m.Accuracy-0.85) > 1e-9 {
		t.Errorf("accuracy = %v", m.Accuracy)
	}
	if math.Abs(m.Precision-0.8) > 1e-9 {
		t.Errorf("precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-40.0/45.0) > 1e-9 {
		t.Errorf("recall = %v", m.Recall)
	}
	wantF1 := 2 * 0.8 * (40.0 / 45.0) / (0.8 + 40.0/45.0)
	if math.Abs(m.F1-wantF1) > 1e-9 {
		t.Errorf("f1 = %v", m.F1)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var c Confusion
	m := c.Metrics() // no samples: all zero, no NaN
	if m.Accuracy != 0 || m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("degenerate metrics = %+v", m)
	}
}

// Property: probabilities always land in [0,1] for arbitrary inputs.
func TestPropertyProbaRange(t *testing.T) {
	d := synthDataset(400, 0.05, 13)
	gb := NewXGBoost()
	gb.Config.Rounds = 15
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, e float64) bool {
		for _, v := range []*float64{&a, &b, &c, &e} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v = 0
			}
		}
		p := gb.PredictProba([]float64{a, b, c, e})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: trees route every input to exactly one leaf (predict returns
// without panic) even with degenerate constant features.
func TestPropertyConstantFeatures(t *testing.T) {
	d := &Dataset{Names: []string{"a", "b"}}
	rng := simclock.NewRNG(17, "const")
	for i := 0; i < 200; i++ {
		d.X = append(d.X, []float64{1.0, rng.Float64()})
		y := 0
		if d.X[i][1] > 0.5 {
			y = 1
		}
		d.Y = append(d.Y, y)
	}
	for _, c := range []Classifier{NewGBDT(), NewXGBoost(), NewLightGBM(), NewRandomForest(3)} {
		if err := c.Fit(d); err != nil {
			t.Fatal(err)
		}
		m := Evaluate(c, d)
		if m.Accuracy < 0.9 {
			t.Fatalf("%T accuracy on 1-feature problem = %.3f", c, m.Accuracy)
		}
	}
}

func TestLeafWiseRespectsMaxLeaves(t *testing.T) {
	d := synthDataset(600, 0, 23)
	gb := NewLightGBM()
	gb.Config.Rounds = 3
	gb.Config.MaxLeaves = 4
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, tr := range gb.trees {
		leaves := 0
		for _, n := range tr.nodes {
			if n.leaf {
				leaves++
			}
		}
		if leaves > 4 {
			t.Fatalf("tree has %d leaves, max 4", leaves)
		}
	}
}

func BenchmarkXGBoostFit(b *testing.B) {
	d := synthDataset(1000, 0.02, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := NewXGBoost()
		gb.Config.Rounds = 20
		if err := gb.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictProba(b *testing.B) {
	d := synthDataset(1000, 0.02, 37)
	gb := NewXGBoost()
	if err := gb.Fit(d); err != nil {
		b.Fatal(err)
	}
	x := d.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb.PredictProba(x)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Feature 1 fully determines the label; feature 0 is noise.
	rng := simclock.NewRNG(41, "imp")
	d := &Dataset{Names: []string{"noise", "signal"}}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0
		if x[1] > 0.5 {
			y = 1
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	gb := NewXGBoost()
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := gb.FeatureImportance(2)
	if imp[1] < imp[0] {
		t.Fatalf("signal importance %v < noise %v", imp[1], imp[0])
	}
	if sum := imp[0] + imp[1]; sum < 0.99 || sum > 1.01 {
		t.Fatalf("importance not normalized: %v", imp)
	}
	rf := NewRandomForest(41)
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if ri := rf.FeatureImportance(2); ri[1] < ri[0] {
		t.Fatalf("forest importance wrong: %v", ri)
	}
	st := NewStackModel(41)
	if err := st.Fit(d); err != nil {
		t.Fatal(err)
	}
	if si := st.FeatureImportance(); len(si) != 2 || si[1] < si[0] {
		t.Fatalf("stack importance wrong: %v", si)
	}
	ranked := RankFeatures(d.Names, imp)
	if ranked[0].Name != "signal" {
		t.Fatalf("ranking wrong: %+v", ranked)
	}
}

func TestFeatureImportanceUnfitted(t *testing.T) {
	if imp := NewGBDT().FeatureImportance(3); imp != nil {
		t.Fatal("unfitted importance should be nil")
	}
	if imp := NewRandomForest(1).FeatureImportance(3); imp != nil {
		t.Fatal("unfitted forest importance should be nil")
	}
	if imp := NewStackModel(1).FeatureImportance(); imp != nil {
		t.Fatal("unfitted stack importance should be nil")
	}
}

func TestAUCKnownValues(t *testing.T) {
	// Perfect ranking.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Perfectly wrong ranking.
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties: 0.5.
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Hand-computed: scores 0.1(0) 0.4(1) 0.35(0) 0.8(1) → 1 pair inverted?
	// pairs: (0.4>0.1)=1, (0.4>0.35)=1, (0.8>0.1)=1, (0.8>0.35)=1 → AUC 1.
	if got := AUC([]float64{0.1, 0.4, 0.35, 0.8}, []int{0, 1, 0, 1}); got != 1 {
		t.Fatalf("AUC = %v", got)
	}
	// Two discordant pairs of four: 0.5.
	if got := AUC([]float64{0.3, 0.2, 0.6, 0.8}, []int{0, 1, 0, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.5", got)
	}
	// One discordant pair of four: 0.75.
	if got := AUC([]float64{0.3, 0.4, 0.6, 0.8}, []int{0, 1, 0, 1}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
	// Degenerate inputs.
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %v", got)
	}
	if got := AUC([]float64{0.4, 0.6}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

// TestAUCIndependentOfTieOrder pins that AUC does not depend on the order
// sort.Slice leaves tied scores in. Tied scores share their average rank,
// and ranks are half-integers, so the positive rank sum is exact in
// float64 whatever order it is summed in: joint permutations of a
// tie-heavy input must give a bit-identical AUC.
func TestAUCIndependentOfTieOrder(t *testing.T) {
	rng := simclock.NewRNG(1, "ml.auc-ties")
	const n = 2000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		// Eleven distinct values, so nearly every score is tied.
		scores[i] = float64(rng.Intn(11)) / 10
		if rng.Float64() < 0.3+0.4*scores[i] {
			labels[i] = 1
		}
	}
	want := AUC(scores, labels)
	if want == 0.5 || want == 1 {
		t.Fatalf("reference AUC %v; the input is degenerate", want)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	ps, pl := make([]float64, n), make([]int, n)
	for trial := 0; trial < 50; trial++ {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, k := range perm {
			ps[i], pl[i] = scores[k], labels[k]
		}
		if got := AUC(ps, pl); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: AUC %v (%#x) after a joint permutation, want %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestEvaluateAUCOnTrainedModel(t *testing.T) {
	d := synthDataset(800, 0.02, 43)
	rng := simclock.NewRNG(43, "auc")
	train, test := d.Split(0.7, rng)
	gb := NewXGBoost()
	if err := gb.Fit(train); err != nil {
		t.Fatal(err)
	}
	auc := EvaluateAUC(gb, test)
	if auc < 0.9 {
		t.Fatalf("AUC = %.3f, want strong ranking", auc)
	}
}

// Property: AUC is invariant under monotone score transformations.
func TestPropertyAUCMonotoneInvariant(t *testing.T) {
	rng := simclock.NewRNG(47, "aucprop")
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(30)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = rng.Float64()
			if rng.Bool(0.5) {
				labels[i] = 1
			}
		}
		a1 := AUC(scores, labels)
		squashed := make([]float64, n)
		for i, s := range scores {
			squashed[i] = s*s*10 + 3 // strictly increasing transform
		}
		a2 := AUC(squashed, labels)
		if math.Abs(a1-a2) > 1e-12 {
			t.Fatalf("AUC not monotone-invariant: %v vs %v", a1, a2)
		}
	}
}

func TestEarlyStoppingPrunesTrees(t *testing.T) {
	// A tiny noisy dataset overfits quickly: early stopping must keep
	// fewer trees than the full budget while preserving test accuracy.
	d := synthDataset(300, 0.15, 51)
	full := NewXGBoost()
	full.Config.Rounds = 120
	if err := full.Fit(d); err != nil {
		t.Fatal(err)
	}
	es := NewXGBoost()
	es.Config.Rounds = 120
	es.Config.ValidationFrac = 0.25
	es.Config.Patience = 6
	es.Config.Seed = 51
	if err := es.Fit(d); err != nil {
		t.Fatal(err)
	}
	if es.NumTrees() >= full.NumTrees() {
		t.Fatalf("early stopping kept %d trees, full budget %d", es.NumTrees(), full.NumTrees())
	}
	if es.NumTrees() == 0 {
		t.Fatal("early stopping pruned everything")
	}
	// Quality must not collapse.
	test := synthDataset(400, 0.02, 53)
	if m := Evaluate(es, test); m.Accuracy < 0.78 {
		t.Fatalf("early-stopped accuracy = %.3f", m.Accuracy)
	}
}

func TestEarlyStoppingSmallDatasetFallsBack(t *testing.T) {
	d := synthDataset(15, 0, 55) // below the 20-row threshold
	gb := NewGBDT()
	gb.Config.ValidationFrac = 0.3
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	if gb.NumTrees() != gb.Config.Rounds {
		t.Fatalf("fallback should train the full budget, got %d trees", gb.NumTrees())
	}
}

func TestBoosterSerializationRoundTrip(t *testing.T) {
	d := synthDataset(400, 0.02, 61)
	gb := NewXGBoost()
	gb.Config.Rounds = 25
	if err := gb.Fit(d); err != nil {
		t.Fatal(err)
	}
	blob, err := gb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var restored GradientBooster
	if err := restored.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a, b := gb.PredictProba(d.X[i]), restored.PredictProba(d.X[i]); a != b {
			t.Fatalf("prediction diverged after round trip: %v vs %v", a, b)
		}
	}
	// Corrupt children must be rejected.
	var bad GradientBooster
	if err := bad.UnmarshalJSON([]byte(`{"config":{},"trees":[{"nodes":[{"l":7,"r":9}]}]}`)); err == nil {
		t.Fatal("out-of-range children accepted")
	}
}

func TestStackSaveLoad(t *testing.T) {
	d := synthDataset(300, 0.03, 63)
	s := NewStackModel(63)
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStackModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if a, b := s.PredictProba(d.X[i]), restored.PredictProba(d.X[i]); a != b {
			t.Fatalf("stack prediction diverged: %v vs %v", a, b)
		}
	}
	// Unfitted save fails; malformed load fails.
	if err := NewStackModel(1).Save(&bytes.Buffer{}); err == nil {
		t.Fatal("unfitted save succeeded")
	}
	if _, err := LoadStackModel(strings.NewReader("{}")); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestKFoldEdgeCases(t *testing.T) {
	rng := simclock.NewRNG(71, "kfe")
	// k > n: every fold still partitions correctly (some test folds empty).
	folds := KFold(3, 5, rng)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	covered := 0
	for _, f := range folds {
		covered += len(f[1])
		if len(f[0])+len(f[1]) != 3 {
			t.Fatalf("fold does not partition: %v", f)
		}
	}
	if covered != 3 {
		t.Fatalf("test folds cover %d rows, want 3", covered)
	}
	// k < 2 clamps to 2.
	if got := KFold(10, 1, rng); len(got) != 2 {
		t.Fatalf("k<2 clamp: %d folds", len(got))
	}
}

func TestSubsetSharesRows(t *testing.T) {
	d := synthDataset(10, 0, 73)
	sub := d.Subset([]int{2, 5})
	if sub.Len() != 2 || &sub.X[0][0] != &d.X[2][0] {
		t.Fatal("Subset should share row storage")
	}
	if sub.Y[1] != d.Y[5] {
		t.Fatal("labels misaligned")
	}
}
