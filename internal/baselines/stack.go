package baselines

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"freephish/internal/features"
	"freephish/internal/ml"
)

// StackDetector wraps the Li et al. two-layer stacking model behind the
// Detector interface, parameterized by which feature view it sees:
//
//   - NewBaseStackModel uses the original 20-feature StackModel set
//     (including has_https and multiple_tlds) — the "Base StackModel" row
//     of Table 2 and the model FreePhish uses to find the self-hosted
//     comparison cohort (Section 5).
//   - NewFreePhishModel uses the augmented 22-feature set with the two
//     FWB-specific features — the "Our Model" row.
type StackDetector struct {
	label string
	names []string
	// cols holds each name's column in features.Values, computed once
	// wherever names is set.
	cols  []int
	seed  int64
	model *ml.StackModel
	// impOnce caches the trained model's feature importances: walking the
	// forest is far too slow for the per-URL Explain path.
	impOnce sync.Once
	imp     []float64
}

// NewBaseStackModel returns the original StackModel baseline.
func NewBaseStackModel(seed int64) *StackDetector {
	return newStackDetector("Base StackModel", features.BaseStackNames, seed, ml.NewStackModel(seed))
}

// NewFreePhishModel returns the augmented FreePhish classifier.
func NewFreePhishModel(seed int64) *StackDetector {
	return newStackDetector("FreePhish (augmented StackModel)", features.FreePhishNames, seed, ml.NewStackModel(seed))
}

func newStackDetector(label string, names []string, seed int64, model *ml.StackModel) *StackDetector {
	return &StackDetector{label: label, names: names, cols: features.Columns(names), seed: seed, model: model}
}

// Seed reports the seed the detector was constructed (or restored) with.
func (s *StackDetector) Seed() int64 { return s.seed }

// SetParallelism bounds how many workers the stacked model's Fit may use
// for its k-fold × base-learner grid; n <= 0 means runtime.GOMAXPROCS(0).
// The fitted model is bit-identical at every setting, so this only trades
// wall-clock for cores. Scoring is unaffected (and already safe to call
// from concurrent pipeline workers on a trained detector).
func (s *StackDetector) SetParallelism(n int) { s.model.Parallelism = n }

// Name implements Detector.
func (s *StackDetector) Name() string { return s.label }

// Train implements Detector.
func (s *StackDetector) Train(samples []LabeledPage) error {
	d := &ml.Dataset{Names: s.names}
	for _, sm := range samples {
		vec, err := s.Extract(sm.Page)
		if err != nil {
			return err
		}
		d.X = append(d.X, vec)
		d.Y = append(d.Y, sm.Label)
	}
	return s.model.Fit(d)
}

// Score implements Detector. It is Extract followed by Predict, which
// callers that time the two stages apart call themselves.
func (s *StackDetector) Score(p features.Page) (float64, error) {
	vec, err := s.Extract(p)
	if err != nil {
		return 0, err
	}
	return s.Predict(vec), nil
}

// Extract returns p's feature vector in the detector's feature view.
func (s *StackDetector) Extract(p features.Page) ([]float64, error) {
	v, err := features.ExtractValues(p)
	if err != nil {
		return nil, err
	}
	return v.Vector(s.cols), nil
}

// Predict scores a feature vector from Extract with the stacked model.
func (s *StackDetector) Predict(vec []float64) float64 { return s.model.PredictProba(vec) }

// Importance returns the trained stack's feature importances, ranked
// descending — which features the §4.2 model actually consults.
func (s *StackDetector) Importance() []ml.RankedFeature {
	return ml.RankFeatures(s.names, s.model.FeatureImportance())
}

// Contribution is one feature's part of an explained verdict: the
// extracted value and its weight (importance × value), the per-URL
// explanation the journal's classified event carries.
type Contribution struct {
	Name   string
	Value  float64
	Weight float64
}

// importances returns the cached per-feature importances of the trained
// model, computing them on first use.
func (s *StackDetector) importances() []float64 {
	s.impOnce.Do(func() { s.imp = s.model.FeatureImportance() })
	return s.imp
}

// Explain is the explanation of a verdict on vec (from Extract): the
// top-k features by |importance × value|, descending, name-tiebroken for
// determinism. Zero-weight features are omitted, so fewer than k entries
// may return.
func (s *StackDetector) Explain(vec []float64, k int) []Contribution {
	imp := s.importances()
	contrib := make([]Contribution, 0, len(vec))
	for i, v := range vec {
		if i >= len(imp) {
			break
		}
		w := imp[i] * v
		if w == 0 {
			continue
		}
		contrib = append(contrib, Contribution{Name: s.names[i], Value: v, Weight: w})
	}
	sort.Slice(contrib, func(i, j int) bool {
		wi, wj := math.Abs(contrib[i].Weight), math.Abs(contrib[j].Weight)
		if wi != wj {
			return wi > wj
		}
		return contrib[i].Name < contrib[j].Name
	})
	if k > 0 && len(contrib) > k {
		contrib = contrib[:k]
	}
	return contrib
}

// Save writes the trained detector (feature view + stacked model) to w.
func (s *StackDetector) Save(w io.Writer) error {
	var buf bytes.Buffer
	if err := s.model.Save(&buf); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(stackDetectorDTO{
		Label: s.label, Names: s.names, Seed: s.seed, Model: json.RawMessage(buf.Bytes()),
	})
}

// LoadStackDetector restores a trained detector from r.
func LoadStackDetector(r io.Reader) (*StackDetector, error) {
	var dto stackDetectorDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("baselines: decode detector: %w", err)
	}
	model, err := ml.LoadStackModel(bytes.NewReader(dto.Model))
	if err != nil {
		return nil, err
	}
	if len(dto.Names) == 0 {
		return nil, fmt.Errorf("baselines: detector payload missing feature names")
	}
	if len(dto.Names) != model.NumFeatures() {
		return nil, fmt.Errorf("baselines: detector payload names %d features for a %d-feature model", len(dto.Names), model.NumFeatures())
	}
	return newStackDetector(dto.Label, dto.Names, dto.Seed, model), nil
}

type stackDetectorDTO struct {
	Label string   `json:"label"`
	Names []string `json:"features"`
	// Seed is persisted so a restored detector can keep generating the
	// same synthetic corpora the original did (payloads written before
	// this field decode to 0).
	Seed  int64           `json:"seed"`
	Model json.RawMessage `json:"model"`
}
