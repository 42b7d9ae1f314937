package ml

import (
	"errors"
	"math"

	"freephish/internal/pipe"
	"freephish/internal/simclock"
)

// BoostConfig configures a gradient-boosting classifier.
type BoostConfig struct {
	Rounds         int     // number of trees
	LearningRate   float64 // shrinkage
	MaxDepth       int
	MinSamplesLeaf int
	// XGBoost-style knobs.
	Lambda     float64 // L2 on leaf values
	Gamma      float64 // min split gain
	UseHessian bool    // second-order statistics
	// LightGBM-style knobs.
	Bins      int  // histogram bins (0 = exact splits)
	LeafWise  bool // best-first growth
	MaxLeaves int  // leaf cap for leaf-wise growth
	// Early stopping: when ValidationFrac > 0, that fraction of the
	// training set is held out and boosting stops once held-out log loss
	// has not improved for Patience consecutive rounds, keeping the best
	// prefix of trees.
	ValidationFrac float64
	Patience       int
	// Seed drives the validation split.
	Seed int64
	// Parallelism bounds the per-feature split-search fan-out inside each
	// boosting round; 0 means runtime.GOMAXPROCS(0). Boosting rounds are
	// inherently sequential, but split finding across features is not,
	// and the parallel search reduces in feature order so the fitted
	// ensemble is identical at every setting. Not persisted with the
	// model: it describes the fitting machine, not the fit.
	Parallelism int `json:"-"`
}

// GradientBooster is a binary log-loss gradient-boosted tree ensemble. The
// zero value is not usable; construct with NewGBDT, NewXGBoost, or
// NewLightGBM, or set Config directly.
type GradientBooster struct {
	Config BoostConfig
	trees  []*regTree
	bias   float64
	// memoSlots, when nonzero, replaces the split-search memo's cap of
	// memoCellFactor × rows × features int32 slots; negative disables the
	// memo. Tests set it to pin that the cap never changes a model.
	memoSlots int
}

// NewGBDT returns a classic first-order GBDT (Friedman), the first-layer
// model family of the Li et al. StackModel.
func NewGBDT() *GradientBooster {
	return &GradientBooster{Config: BoostConfig{
		Rounds: 60, LearningRate: 0.15, MaxDepth: 4, MinSamplesLeaf: 8,
	}}
}

// NewXGBoost returns a second-order, L2-regularized booster in the XGBoost
// style: exact splits, depth-wise growth, γ/λ regularization.
func NewXGBoost() *GradientBooster {
	return &GradientBooster{Config: BoostConfig{
		Rounds: 60, LearningRate: 0.15, MaxDepth: 4, MinSamplesLeaf: 4,
		Lambda: 1.0, Gamma: 0.01, UseHessian: true,
	}}
}

// NewLightGBM returns a histogram-based, leaf-wise booster in the LightGBM
// style: binned splits and best-first growth with a leaf cap.
func NewLightGBM() *GradientBooster {
	return &GradientBooster{Config: BoostConfig{
		Rounds: 60, LearningRate: 0.15, MaxDepth: 8, MinSamplesLeaf: 4,
		Lambda: 1.0, UseHessian: true, Bins: 32, LeafWise: true, MaxLeaves: 15,
	}}
}

func sigmoid(z float64) float64 {
	// Numerically stable logistic.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains the ensemble with binary log loss, with optional early
// stopping on a held-out split.
func (gb *GradientBooster) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if gb.Config.ValidationFrac > 0 && gb.Config.ValidationFrac < 1 && d.Len() >= 20 {
		rng := simclock.NewRNG(gb.Config.Seed, "ml.earlystop")
		train, val := d.Split(1-gb.Config.ValidationFrac, rng)
		return gb.fitEarlyStopping(train, val)
	}
	return gb.fit(d)
}

func (gb *GradientBooster) fit(d *Dataset) error {
	n := d.Len()
	if n == 0 {
		return errors.New("ml: empty dataset")
	}
	pos := 0
	for _, y := range d.Y {
		pos += y
	}
	// Initial raw score: log-odds of the base rate, clamped away from
	// degenerate single-class datasets.
	p0 := (float64(pos) + 0.5) / (float64(n) + 1.0)
	gb.bias = math.Log(p0 / (1 - p0))
	gb.trees = gb.trees[:0]

	raw := make([]float64, n)
	for i := range raw {
		raw[i] = gb.bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	workers := pipe.Workers(gb.Config.Parallelism)
	ctx := newBuildCtx(d.X, grad, hess, treeParams{
		maxDepth:       gb.Config.MaxDepth,
		maxLeaves:      gb.Config.MaxLeaves,
		leafWise:       gb.Config.LeafWise,
		minSamplesLeaf: gb.Config.MinSamplesLeaf,
		lambda:         gb.Config.Lambda,
		gamma:          gb.Config.Gamma,
		useHessian:     gb.Config.UseHessian,
		bins:           gb.Config.Bins,
		workers:        workers,
	}, gb.memoSlots)
	for round := 0; round < gb.Config.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(raw[i])
			grad[i] = p - float64(d.Y[i])
			hess[i] = p * (1 - p)
			if hess[i] < 1e-6 {
				hess[i] = 1e-6
			}
		}
		t := buildTree(ctx, idx)
		gb.trees = append(gb.trees, t)
		// Per-sample routing through the new tree is independent work with
		// disjoint writes, so the update fans out when n justifies it.
		if workers > 1 && n >= parallelSplitMinRows {
			pipe.Do(workers, n, func(i int) {
				raw[i] += gb.Config.LearningRate * t.predict(d.X[i])
			})
		} else {
			for i := 0; i < n; i++ {
				raw[i] += gb.Config.LearningRate * t.predict(d.X[i])
			}
		}
	}
	return nil
}

// fitEarlyStopping trains on train while watching val's log loss, keeping
// the tree prefix with the best validation loss.
func (gb *GradientBooster) fitEarlyStopping(train, val *Dataset) error {
	if err := gb.fit(train); err != nil {
		return err
	}
	patience := gb.Config.Patience
	if patience <= 0 {
		patience = 8
	}
	// Evaluate validation log loss after each tree prefix incrementally.
	raw := make([]float64, val.Len())
	for i := range raw {
		raw[i] = gb.bias
	}
	bestLoss := math.Inf(1)
	bestRound := len(gb.trees)
	since := 0
	for r, t := range gb.trees {
		loss := 0.0
		for i, x := range val.X {
			raw[i] += gb.Config.LearningRate * t.predict(x)
			p := sigmoid(raw[i])
			if val.Y[i] == 1 {
				loss -= math.Log(math.Max(p, 1e-12))
			} else {
				loss -= math.Log(math.Max(1-p, 1e-12))
			}
		}
		if loss < bestLoss-1e-9 {
			bestLoss = loss
			bestRound = r + 1
			since = 0
		} else {
			since++
			if since >= patience {
				break
			}
		}
	}
	gb.trees = gb.trees[:bestRound]
	return nil
}

// PredictProba returns P(y=1 | x).
func (gb *GradientBooster) PredictProba(x []float64) float64 {
	raw := gb.bias
	for _, t := range gb.trees {
		raw += gb.Config.LearningRate * t.predict(x)
	}
	return sigmoid(raw)
}

// NumTrees reports the number of fitted trees.
func (gb *GradientBooster) NumTrees() int { return len(gb.trees) }
