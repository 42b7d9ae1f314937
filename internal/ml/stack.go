package ml

import (
	"errors"

	"freephish/internal/pipe"
	"freephish/internal/simclock"
)

// StackModel is the two-layer stacking architecture of Li et al. (the base
// model the paper augments, Section 4.2):
//
//   - Layer 1 trains GBDT, XGBoost, and LightGBM with K-fold out-of-fold
//     prediction so every training sample receives base-model predictions
//     from models that never saw it, plus a majority vote over the three.
//   - Layer 2 trains a final GBDT on [original features ‖ three base
//     probabilities ‖ majority vote].
//
// The zero value is not usable; construct with NewStackModel.
type StackModel struct {
	Folds int
	Seed  int64
	// Parallelism bounds concurrent (fold × base-learner) fits during Fit;
	// 0 means runtime.GOMAXPROCS(0). The fold split is drawn before any
	// fitting starts and each job writes disjoint out-of-fold slots, so
	// the trained stack is identical at every setting.
	Parallelism int

	base  []*GradientBooster // refit on the full training set for inference
	meta  *GradientBooster
	nFeat int
}

// NewStackModel returns a stack with the paper's base-model lineup.
func NewStackModel(seed int64) *StackModel {
	return &StackModel{Folds: 5, Seed: seed}
}

func newBaseModels() []*GradientBooster {
	return []*GradientBooster{NewGBDT(), NewXGBoost(), NewLightGBM()}
}

// newBaseModel constructs the m-th base learner of the lineup.
func newBaseModel(m int) *GradientBooster {
	switch m {
	case 0:
		return NewGBDT()
	case 1:
		return NewXGBoost()
	default:
		return NewLightGBM()
	}
}

// innerParallelism decides the split-search fan-out each fitted booster
// gets: when the stack-level jobs already saturate the workers, nesting
// more goroutines under them only adds scheduling overhead.
func innerParallelism(stackWorkers int) int {
	if stackWorkers > 1 {
		return 1
	}
	return stackWorkers
}

// Fit trains the two layers.
func (s *StackModel) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	n := d.Len()
	if n < 2*s.Folds {
		return errors.New("ml: dataset too small for stacking folds")
	}
	s.nFeat = len(d.Names)
	rng := simclock.NewRNG(s.Seed, "ml.stack")
	nBase := len(newBaseModels())
	workers := pipe.Workers(s.Parallelism)
	inner := innerParallelism(workers)

	// Out-of-fold base predictions. The folds are drawn before any model
	// fitting starts, and each (fold, learner) job reads a shared train
	// subset and writes only its own oof column over its own test rows —
	// so the jobs can run in any order, on any number of workers, without
	// changing a single prediction.
	oof := make([][]float64, n) // [sample][base model]
	for i := range oof {
		oof[i] = make([]float64, nBase)
	}
	folds := KFold(n, s.Folds, rng)
	trainSets := make([]*Dataset, len(folds))
	for fi, fold := range folds {
		trainSets[fi] = d.Subset(fold[0])
	}
	type job struct{ fold, model int }
	jobs := make([]job, 0, len(folds)*nBase)
	for fi := range folds {
		for m := 0; m < nBase; m++ {
			jobs = append(jobs, job{fi, m})
		}
	}
	if _, err := pipe.MapOrdered(workers, jobs, func(_ int, j job) (struct{}, error) {
		gb := newBaseModel(j.model)
		gb.Config.Parallelism = inner
		if err := gb.Fit(trainSets[j.fold]); err != nil {
			return struct{}{}, err
		}
		for _, i := range folds[j.fold][1] {
			oof[i][j.model] = gb.PredictProba(d.X[i])
		}
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	// Meta dataset: original features + base probabilities + majority vote.
	meta := &Dataset{
		X:     make([][]float64, n),
		Y:     d.Y,
		Names: s.metaNames(d.Names),
	}
	for i := 0; i < n; i++ {
		meta.X[i] = s.metaRow(d.X[i], oof[i])
	}
	s.meta = NewGBDT()
	s.meta.Config.Parallelism = s.Parallelism
	if err := s.meta.Fit(meta); err != nil {
		return err
	}

	// Refit base models on the full training set for inference time.
	s.base = newBaseModels()
	if _, err := pipe.MapOrdered(workers, s.base, func(_ int, gb *GradientBooster) (struct{}, error) {
		gb.Config.Parallelism = inner
		return struct{}{}, gb.Fit(d)
	}); err != nil {
		return err
	}
	return nil
}

func (s *StackModel) metaNames(names []string) []string {
	out := append([]string(nil), names...)
	return append(out, "base_gbdt", "base_xgb", "base_lgbm", "base_vote")
}

func (s *StackModel) metaRow(x []float64, probs []float64) []float64 {
	row := make([]float64, 0, len(x)+len(probs)+1)
	row = append(row, x...)
	votes := 0
	for _, p := range probs {
		row = append(row, p)
		if p >= 0.5 {
			votes++
		}
	}
	vote := 0.0
	if votes*2 > len(probs) {
		vote = 1.0
	}
	return append(row, vote)
}

// PredictProba runs both layers.
func (s *StackModel) PredictProba(x []float64) float64 {
	probs := make([]float64, len(s.base))
	for m, gb := range s.base {
		probs[m] = gb.PredictProba(x)
	}
	return s.meta.PredictProba(s.metaRow(x, probs))
}
