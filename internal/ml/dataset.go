// Package ml is the from-scratch machine-learning substrate behind the
// FreePhish classification module: CART trees, three gradient-boosting
// variants (classic GBDT, an XGBoost-style second-order booster, and a
// LightGBM-style histogram/leaf-wise booster), a random forest, and the
// two-layer stacking architecture of Li et al. that the paper builds on.
// Everything uses float64 feature matrices and binary {0,1} labels.
package ml

import (
	"fmt"

	"freephish/internal/simclock"
)

// Dataset is a feature matrix with aligned binary labels.
type Dataset struct {
	X     [][]float64
	Y     []int
	Names []string // feature names, len == len(X[i])
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks shape invariants.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != len(d.Names) {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), len(d.Names))
		}
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("ml: label %d = %d, want 0 or 1", i, y)
		}
	}
	return nil
}

// Subset returns the dataset restricted to the given row indices. The rows
// are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:     make([][]float64, len(idx)),
		Y:     make([]int, len(idx)),
		Names: d.Names,
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Split partitions the dataset into train and test sets with the given
// train fraction, after a seeded shuffle — the paper's 70/30 protocol.
func (d *Dataset) Split(trainFrac float64, rng *simclock.RNG) (train, test *Dataset) {
	perm := rng.Perm(d.Len())
	nTrain := int(float64(d.Len()) * trainFrac)
	return d.Subset(perm[:nTrain]), d.Subset(perm[nTrain:])
}

// KFold returns k disjoint (trainIdx, testIdx) pairs covering all rows, in
// the style of the stacking model's out-of-fold training.
func KFold(n, k int, rng *simclock.RNG) (folds [][2][]int) {
	if k < 2 {
		k = 2
	}
	perm := rng.Perm(n)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		test := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-len(test))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds = append(folds, [2][]int{train, test})
	}
	return folds
}

// Classifier is a binary classifier over float64 feature vectors.
type Classifier interface {
	// Fit trains the classifier on the dataset.
	Fit(d *Dataset) error
	// PredictProba returns P(y=1 | x).
	PredictProba(x []float64) float64
}

// Predict thresholds PredictProba at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}
