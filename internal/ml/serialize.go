package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence: a trained ensemble serializes to JSON so the
// classifier can be trained once (the expensive stacking fit) and shipped
// to consumers like the protective proxy, exactly as the paper's extension
// ships a trained model to end users.

// treeDTO is the wire form of one regression tree.
type treeDTO struct {
	Nodes []nodeDTO `json:"nodes"`
}

type nodeDTO struct {
	Feature   int     `json:"f,omitempty"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Leaf      bool    `json:"leaf,omitempty"`
	Value     float64 `json:"v,omitempty"`
}

// boosterDTO is the wire form of a GradientBooster.
type boosterDTO struct {
	Config BoostConfig `json:"config"`
	Bias   float64     `json:"bias"`
	Trees  []treeDTO   `json:"trees"`
}

// MarshalJSON serializes the fitted booster.
func (gb *GradientBooster) MarshalJSON() ([]byte, error) {
	dto := boosterDTO{Config: gb.Config, Bias: gb.bias}
	for _, t := range gb.trees {
		td := treeDTO{Nodes: make([]nodeDTO, len(t.nodes))}
		for i, n := range t.nodes {
			td.Nodes[i] = nodeDTO{
				Feature: n.feature, Threshold: n.threshold,
				Left: n.left, Right: n.right, Leaf: n.leaf, Value: n.value,
			}
		}
		dto.Trees = append(dto.Trees, td)
	}
	return json.Marshal(dto)
}

// UnmarshalJSON restores a fitted booster.
func (gb *GradientBooster) UnmarshalJSON(data []byte) error {
	var dto boosterDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("ml: decode booster: %w", err)
	}
	gb.Config = dto.Config
	gb.bias = dto.Bias
	gb.trees = gb.trees[:0]
	for ti, td := range dto.Trees {
		if len(td.Nodes) == 0 {
			return fmt.Errorf("ml: tree %d has no nodes", ti)
		}
		t := &regTree{nodes: make([]regNode, len(td.Nodes))}
		for i, n := range td.Nodes {
			// The fitter appends children after their parent, so routing
			// only ever moves forward and always reaches a leaf.
			if !n.Leaf && (n.Left <= i || n.Left >= len(td.Nodes) || n.Right <= i || n.Right >= len(td.Nodes)) {
				return fmt.Errorf("ml: tree %d node %d has children out of order or range", ti, i)
			}
			t.nodes[i] = regNode{
				feature: n.Feature, threshold: n.Threshold,
				left: n.Left, right: n.Right, leaf: n.Leaf, value: n.Value,
			}
		}
		gb.trees = append(gb.trees, t)
	}
	return nil
}

// stackDTO is the wire form of a StackModel.
type stackDTO struct {
	Folds int                `json:"folds"`
	Seed  int64              `json:"seed"`
	NFeat int                `json:"n_features"`
	Base  []*GradientBooster `json:"base"`
	Meta  *GradientBooster   `json:"meta"`
}

// Save writes the trained stack to w as JSON.
func (s *StackModel) Save(w io.Writer) error {
	if s.meta == nil {
		return fmt.Errorf("ml: cannot save an unfitted stack")
	}
	return json.NewEncoder(w).Encode(stackDTO{
		Folds: s.Folds, Seed: s.Seed, NFeat: s.nFeat, Base: s.base, Meta: s.meta,
	})
}

// maxStackFeatures bounds the input width a loaded stack may declare:
// far wider than any feature view, and small enough that a caller can
// allocate the vector it asks for.
const maxStackFeatures = 1 << 16

// LoadStackModel restores a trained stack from r. It rejects payloads
// that could not have come from a fit: a tree that is empty or routes
// backwards, a split on a feature outside the declared width, or a base
// lineup other than the stack's.
func LoadStackModel(r io.Reader) (*StackModel, error) {
	var dto stackDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("ml: decode stack: %w", err)
	}
	if dto.Meta == nil || len(dto.Base) == 0 {
		return nil, fmt.Errorf("ml: stack payload missing layers")
	}
	if len(dto.Base) != len(newBaseModels()) {
		return nil, fmt.Errorf("ml: stack payload has %d base models, want %d", len(dto.Base), len(newBaseModels()))
	}
	if dto.NFeat <= 0 || dto.NFeat > maxStackFeatures {
		return nil, fmt.Errorf("ml: stack payload declares %d features, want 1 to %d", dto.NFeat, maxStackFeatures)
	}
	for m, gb := range dto.Base {
		if gb == nil {
			return nil, fmt.Errorf("ml: stack payload base model %d is null", m)
		}
		if err := gb.checkFeatures(dto.NFeat); err != nil {
			return nil, fmt.Errorf("ml: base model %d: %w", m, err)
		}
	}
	// The meta layer reads the features, one probability per base model
	// and the vote (see metaRow).
	if err := dto.Meta.checkFeatures(dto.NFeat + len(dto.Base) + 1); err != nil {
		return nil, fmt.Errorf("ml: meta model: %w", err)
	}
	return &StackModel{
		Folds: dto.Folds, Seed: dto.Seed, nFeat: dto.NFeat,
		base: dto.Base, meta: dto.Meta,
	}, nil
}

// checkFeatures reports a split on a feature outside [0, width), which
// would index past the input vector at predict time.
func (gb *GradientBooster) checkFeatures(width int) error {
	for ti, t := range gb.trees {
		for i, n := range t.nodes {
			if !n.leaf && (n.feature < 0 || n.feature >= width) {
				return fmt.Errorf("tree %d node %d splits on feature %d of %d", ti, i, n.feature, width)
			}
		}
	}
	return nil
}

// NumFeatures reports the width of the input vector PredictProba expects.
func (s *StackModel) NumFeatures() int { return s.nFeat }
