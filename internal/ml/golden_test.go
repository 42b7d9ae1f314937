package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"freephish/internal/simclock"
)

// tiedDataset draws a corpus shaped like the extracted page features:
// binary flags and small counts, so most columns hold long runs of tied
// values. Ties are where a change of sort order or summation order shows
// up in a fitted tree; continuous draws (synthDataset) hide it. The last
// two columns mirror b0 and i3, so each of their splits has a twin of
// equal gain in exact arithmetic, and the winner turns on the rounding of
// the gradient sums: a different order inside a run of ties flips it.
func tiedDataset(n int, seed int64) *Dataset {
	rng := simclock.NewRNG(seed, "ml.tied")
	d := &Dataset{Names: []string{"b0", "b1", "b2", "i3", "i4", "c5", "r6", "b7", "nb0", "ni3"}}
	bit := func(p float64) float64 {
		if rng.Bool(p) {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		x := []float64{
			bit(0.5), bit(0.3), bit(0.8),
			float64(rng.Intn(5)), float64(rng.Intn(3)), float64(rng.Intn(12)),
			math.Round(rng.Float64()*10) / 10, bit(0.05),
		}
		x = append(x, 1-x[0], 4-x[3])
		y := 0
		if (x[0] == 1 && x[3] >= 2) || (x[1] == 1 && x[6] > 0.6) || x[5] > 9 || x[7] == 1 {
			y = 1
		}
		if rng.Bool(0.1) {
			y = 1 - y
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// goldenModels are the fitted-model hashes (first 16 hex digits of
// SHA-256) of every model family on tiedDataset, keyed family/rows/seed.
// They must not move with Parallelism, and a fitting change that claims
// byte-identity must leave every one of them as it is.
var goldenModels = map[string]string{
	"gbdt/120/3":      "9286a0c378e7f899",
	"xgboost/120/3":   "4df0676cdf938624",
	"lightgbm/120/3":  "272d3a276d0cf148",
	"forest/120/3":    "ea8d5379adb7e166",
	"stack/120/3":     "d3783555f7442d62",
	"gbdt/400/11":     "f7a73730b9f56461",
	"xgboost/400/11":  "6ec5c9325f678c8b",
	"lightgbm/400/11": "222532e8a1e694c0",
	"forest/400/11":   "e73181db1260dcdb",
	"stack/400/11":    "61e4f44452d3b320",
}

// modelHash hashes a fitted model's full state: the JSON wire form for
// boosters and stacks, and every node field for forests, which have no
// wire form.
func modelHash(t *testing.T, m Classifier) string {
	t.Helper()
	var buf bytes.Buffer
	switch m := m.(type) {
	case *GradientBooster:
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	case *StackModel:
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
	case *RandomForest:
		for _, tr := range m.trees {
			for _, n := range tr.nodes {
				leaf := int64(0)
				if n.leaf {
					leaf = 1
				}
				for _, v := range []int64{
					int64(n.feature), int64(math.Float64bits(n.threshold)), int64(n.left), int64(n.right),
					leaf, int64(math.Float64bits(n.prob)), int64(math.Float64bits(n.gain)),
				} {
					_ = binary.Write(&buf, binary.LittleEndian, v)
				}
			}
			buf.WriteByte('|')
		}
	default:
		t.Fatalf("no hash for %T", m)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// goldenFamilies builds each model family at a given Parallelism.
var goldenFamilies = []struct {
	name string
	mk   func(seed int64, workers int) Classifier
}{
	{"gbdt", func(_ int64, w int) Classifier { gb := NewGBDT(); gb.Config.Parallelism = w; return gb }},
	{"xgboost", func(_ int64, w int) Classifier { gb := NewXGBoost(); gb.Config.Parallelism = w; return gb }},
	{"lightgbm", func(_ int64, w int) Classifier { gb := NewLightGBM(); gb.Config.Parallelism = w; return gb }},
	{"forest", func(s int64, w int) Classifier { rf := NewRandomForest(s); rf.Config.Parallelism = w; return rf }},
	{"stack", func(s int64, w int) Classifier { sm := NewStackModel(s); sm.Parallelism = w; return sm }},
}

// TestFittedModelsGolden pins every fitted model byte for byte, on a
// corpus with heavy ties, at Parallelism 1 and 8. The 400-row case puts
// the root node above parallelSplitMinRows, so the concurrent split
// search runs at 8.
func TestFittedModelsGolden(t *testing.T) {
	for _, c := range []struct {
		rows int
		seed int64
	}{{120, 3}, {400, 11}} {
		d := tiedDataset(c.rows, c.seed)
		for _, fam := range goldenFamilies {
			key := fmt.Sprintf("%s/%d/%d", fam.name, c.rows, c.seed)
			for _, workers := range []int{1, 8} {
				m := fam.mk(c.seed, workers)
				if err := m.Fit(d); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := modelHash(t, m), goldenModels[key]; got != want {
					t.Errorf("%s at Parallelism %d: hash %s, want %s", key, workers, got, want)
				}
			}
		}
	}
}

// TestMemoCapKeepsModels fits each booster family with the split-search
// memo off, with a cap of one root-sized level (so deeper nodes spill),
// and at the default cap, and requires the same bytes from all three.
func TestMemoCapKeepsModels(t *testing.T) {
	d := tiedDataset(400, 11)
	oneLevel := d.Len() * len(d.Names)
	for _, mk := range []func() *GradientBooster{NewGBDT, NewXGBoost, NewLightGBM} {
		var want []byte
		for _, slots := range []int{0, -1, oneLevel} {
			gb := mk()
			gb.Config.Parallelism = 1
			gb.memoSlots = slots
			if err := gb.Fit(d); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(gb)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("bins=%d leafWise=%v: memo cap %d changes the model", gb.Config.Bins, gb.Config.LeafWise, slots)
			}
		}
	}
}
