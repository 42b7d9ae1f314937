package ml

import (
	"errors"
	"math"
	"sort"
	"strconv"

	"freephish/internal/pipe"
	"freephish/internal/simclock"
)

// ForestConfig configures a random forest.
type ForestConfig struct {
	Trees          int
	MaxDepth       int
	MinSamplesLeaf int
	// FeatureFrac is the fraction of features considered per split;
	// 0 means sqrt(nFeatures).
	FeatureFrac float64
	Seed        int64
	// Parallelism bounds how many trees grow concurrently during Fit;
	// 0 means runtime.GOMAXPROCS(0). The fitted forest is bit-identical
	// at every setting: each tree draws from its own pre-derived RNG
	// stream, so growth order cannot perturb the draws.
	Parallelism int `json:"-"`
}

// RandomForest is a bagged ensemble of Gini-split classification trees —
// the classifier the paper's framework overview names for the
// classification module. The zero value is not usable; construct with
// NewRandomForest.
type RandomForest struct {
	Config ForestConfig
	trees  []*giniTree
}

// NewRandomForest returns a forest with sensible defaults.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{Config: ForestConfig{
		Trees: 80, MaxDepth: 12, MinSamplesLeaf: 2, Seed: seed,
	}}
}

type giniNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	prob      float64 // P(y=1) at the leaf
	// gain is the node's impurity decrease weighted by the fraction of
	// the tree's samples that reach it — the per-node term of the
	// mean-decrease-in-impurity importance.
	gain float64
}

type giniTree struct {
	nodes []giniNode
}

func (t *giniTree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.prob
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Fit trains the forest with bootstrap sampling and per-split feature
// subsampling.
func (rf *RandomForest) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return errors.New("ml: empty dataset")
	}
	nFeat := len(d.Names)
	mtry := int(rf.Config.FeatureFrac * float64(nFeat))
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(nFeat)))
		if mtry < 1 {
			mtry = 1
		}
	}
	trees := make([]*giniTree, rf.Config.Trees)
	pipe.Do(rf.Config.Parallelism, rf.Config.Trees, func(i int) {
		// Each tree owns a stream derived from (seed, tree ordinal): its
		// bootstrap and per-split feature draws are independent of how the
		// pool schedules the trees.
		rng := simclock.NewRNG(rf.Config.Seed, "ml.forest.tree."+strconv.Itoa(i))
		idx := make([]int, d.Len())
		for j := range idx {
			idx[j] = rng.Intn(d.Len())
		}
		b := &giniBuilder{d: d, rng: rng, mtry: mtry, cfg: rf.Config, rootN: len(idx)}
		t := &giniTree{}
		b.grow(t, idx, 0)
		trees[i] = t
	})
	rf.trees = trees
	return nil
}

// PredictProba averages leaf probabilities over the forest.
func (rf *RandomForest) PredictProba(x []float64) float64 {
	if len(rf.trees) == 0 {
		return 0.5
	}
	sum := 0.0
	for _, t := range rf.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(rf.trees))
}

type giniBuilder struct {
	d    *Dataset
	rng  *simclock.RNG
	mtry int
	cfg  ForestConfig
	// rootN is the bootstrap sample size, the denominator of the
	// per-node sample fraction in the importance weighting.
	rootN int
}

func (b *giniBuilder) grow(t *giniTree, idx []int, depth int) int {
	node := len(t.nodes)
	pos := 0
	for _, i := range idx {
		pos += b.d.Y[i]
	}
	prob := 0.5
	if len(idx) > 0 {
		prob = float64(pos) / float64(len(idx))
	}
	t.nodes = append(t.nodes, giniNode{leaf: true, prob: prob})
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinSamplesLeaf || pos == 0 || pos == len(idx) {
		return node
	}
	f, thr, gain, ok := b.bestSplit(idx)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return node
	}
	t.nodes[node].leaf = false
	t.nodes[node].feature = f
	t.nodes[node].threshold = thr
	t.nodes[node].gain = gain * float64(len(idx)) / float64(b.rootN)
	l := b.grow(t, left, depth+1)
	r := b.grow(t, right, depth+1)
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

func (b *giniBuilder) bestSplit(idx []int) (feature int, threshold, gain float64, ok bool) {
	nFeat := len(b.d.Names)
	feats := b.rng.Perm(nFeat)[:b.mtry]
	totPos := 0
	for _, i := range idx {
		totPos += b.d.Y[i]
	}
	parent := gini(totPos, len(idx))
	bestGain := 1e-9
	for _, f := range feats {
		ord := make([]int, len(idx))
		copy(ord, idx)
		sort.Slice(ord, func(a, c int) bool { return b.d.X[ord[a]][f] < b.d.X[ord[c]][f] })
		leftPos := 0
		for k := 0; k < len(ord)-1; k++ {
			leftPos += b.d.Y[ord[k]]
			v, next := b.d.X[ord[k]][f], b.d.X[ord[k+1]][f]
			if v == next {
				continue
			}
			nl, nr := k+1, len(ord)-k-1
			wl := float64(nl) / float64(len(ord))
			g := parent - wl*gini(leftPos, nl) - (1-wl)*gini(totPos-leftPos, nr)
			if g > bestGain {
				bestGain = g
				feature = f
				threshold = (v + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, bestGain, ok
}
