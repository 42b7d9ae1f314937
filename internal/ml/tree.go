package ml

import (
	"container/heap"
	"encoding/binary"
	"math"
	"sort"

	"freephish/internal/pipe"
)

// treeParams controls regression-tree growth for the boosting variants.
type treeParams struct {
	maxDepth       int
	maxLeaves      int  // 0 = unlimited (depth-wise growth)
	leafWise       bool // grow best-gain-first (LightGBM style)
	minSamplesLeaf int
	lambda         float64 // L2 regularization on leaf values (XGBoost style)
	gamma          float64 // minimum gain to split
	useHessian     bool    // second-order leaf values and gains
	bins           int     // 0 = exact splits; >0 = histogram splits (LightGBM style)
	workers        int     // worker cap for the per-feature split search; <=1 = serial
}

// parallelSplitMinRows gates the per-feature fan-out: below this node size
// the goroutine handoff costs more than the scan it distributes.
const parallelSplitMinRows = 256

// regNode is one node of a regression tree, stored flat.
type regNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	value     float64
}

// regTree predicts a real value by routing x to a leaf.
type regTree struct {
	nodes []regNode
}

func (t *regTree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// memoCellFactor caps each fit's node memo at this many int32 row slots
// per (root row × feature) cell: the bytes of 8 int-sized slots. A
// depth-4 tree holds at most four root-sized levels, so the cap keeps
// about four distinct tree shapes' nodes; nodes past it sort without
// caching. ROADMAP.md item 1 records what the cap costs in peak RSS.
const memoCellFactor = 16

// buildCtx carries the gradient statistics during growth, and what one
// fit derives from X alone: its columns and the per-node memo.
type buildCtx struct {
	cols [][]float64 // cols[f][i] == X[i][f]
	grad []float64
	hess []float64
	p    treeParams

	// memo maps a node's split path from the root to its memoEntry, and
	// memoFree counts the row slots left under the cap. Within a fit X is
	// fixed and a child's rows are a stable filter of its parent's, so
	// the path fixes the node's rows and with them every order and bin
	// derived from X (see DESIGN.md, "Determinism").
	memo     map[string]*memoEntry
	memoFree int
	spill    *memoEntry // reused for nodes that do not fit under the cap

	splits []split   // findSplit's per-feature results
	gs, hs []float64 // histSplit buckets, bins per feature
	ns     []int
}

// memoEntry is what the split search derives from X for one node. rows
// holds one run of len(node rows) per feature: exact splits keep the
// node's rows in sort.Slice order by that feature, histogram splits keep
// each row's bin in node order. lo and hi are the histogram range per
// feature.
type memoEntry struct {
	rows   []int32
	lo, hi []float64
}

// newBuildCtx sets up the growth context of one fit over X's rows.
// memoSlots, when nonzero, replaces the memo cap: negative disables the
// memo (tests use it to pin the uncached path).
func newBuildCtx(X [][]float64, grad, hess []float64, p treeParams, memoSlots int) *buildCtx {
	nFeat := len(X[0])
	c := &buildCtx{
		grad: grad, hess: hess, p: p,
		cols:     make([][]float64, nFeat),
		memo:     map[string]*memoEntry{},
		memoFree: memoCellFactor * len(X) * nFeat,
		splits:   make([]split, nFeat),
	}
	if memoSlots != 0 {
		c.memoFree = memoSlots
	}
	flat := make([]float64, nFeat*len(X))
	for f := range c.cols {
		col := flat[f*len(X) : (f+1)*len(X)]
		for i, x := range X {
			col[i] = x[f]
		}
		c.cols[f] = col
	}
	if p.bins > 0 {
		c.gs = make([]float64, nFeat*p.bins)
		c.hs = make([]float64, nFeat*p.bins)
		c.ns = make([]int, nFeat*p.bins)
	}
	return c
}

// entry returns the memo entry for the node at key with m rows, and
// whether the caller must fill it. A node past the cap gets the spill
// entry, refilled on every visit.
func (c *buildCtx) entry(key string, m int) (*memoEntry, bool) {
	if e, ok := c.memo[key]; ok {
		return e, false
	}
	nFeat := len(c.cols)
	if need := m * nFeat; need <= c.memoFree {
		c.memoFree -= need
		e := newMemoEntry(m, nFeat, c.p.bins > 0)
		c.memo[key] = e
		return e, true
	}
	if c.spill == nil {
		c.spill = newMemoEntry(len(c.grad), nFeat, c.p.bins > 0)
	}
	c.spill.rows = c.spill.rows[:m*nFeat]
	return c.spill, true
}

func newMemoEntry(m, nFeat int, hist bool) *memoEntry {
	e := &memoEntry{rows: make([]int32, m*nFeat)}
	if hist {
		e.lo = make([]float64, nFeat)
		e.hi = make([]float64, nFeat)
	}
	return e
}

// childKeys extends a node's split path with the split s.
func childKeys(key string, s split) (left, right string) {
	var b [13]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(s.feature))
	binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(s.threshold))
	b[12] = 'l'
	left = key + string(b[:])
	b[12] = 'r'
	return left, key + string(b[:])
}

func (c *buildCtx) leafValue(idx []int) float64 {
	var g, h float64
	for _, i := range idx {
		g += c.grad[i]
		h += c.hess[i]
	}
	if c.p.useHessian {
		return -g / (h + c.p.lambda)
	}
	// Classic GBDT (Friedman): leaf = mean negative gradient.
	if len(idx) == 0 {
		return 0
	}
	return -g / float64(len(idx))
}

// score is the structure score used for gain computation: G²/(H+λ) in
// second-order mode, G²/n otherwise.
func (c *buildCtx) score(g, h float64, n int) float64 {
	if c.p.useHessian {
		return g * g / (h + c.p.lambda)
	}
	if n == 0 {
		return 0
	}
	return g * g / float64(n)
}

// split describes the best split found for a node.
type split struct {
	feature   int
	threshold float64
	gain      float64
	leftIdx   []int
	rightIdx  []int
	leftKey   string // the children's memo keys
	rightKey  string
	ok        bool
}

// findSplit searches all features for the best split over idx, the rows
// of the node at memo key key.
func (c *buildCtx) findSplit(idx []int, key string) split {
	var totG, totH float64
	for _, i := range idx {
		totG += c.grad[i]
		totH += c.hess[i]
	}
	base := c.score(totG, totH, len(idx))
	nFeat := len(c.cols)
	e, fill := c.entry(key, len(idx))
	// Features are searched independently (possibly concurrently) into a
	// per-feature slot, then reduced in ascending feature order with the
	// same strict-improvement rule the serial scan used — so ties between
	// equal-gain features resolve identically at every worker count.
	splits := c.splits
	search := func(f int) {
		if c.p.bins > 0 {
			splits[f] = c.histSplit(idx, e, fill, f, totG, totH, base)
		} else {
			splits[f] = c.exactSplit(idx, e, fill, f, totG, totH, base)
		}
	}
	if c.p.workers > 1 && len(idx) >= parallelSplitMinRows {
		pipe.Do(c.p.workers, nFeat, search)
	} else {
		for f := 0; f < nFeat; f++ {
			search(f)
		}
	}
	best := split{gain: c.p.gamma}
	for f := 0; f < nFeat; f++ {
		if splits[f].ok && splits[f].gain > best.gain {
			best = splits[f]
			best.ok = true
		}
	}
	if !best.ok {
		return split{}
	}
	// Materialize partitions once for the winning split.
	col := c.cols[best.feature]
	for _, i := range idx {
		if col[i] <= best.threshold {
			best.leftIdx = append(best.leftIdx, i)
		} else {
			best.rightIdx = append(best.rightIdx, i)
		}
	}
	if len(best.leftIdx) < c.p.minSamplesLeaf || len(best.rightIdx) < c.p.minSamplesLeaf {
		return split{}
	}
	best.leftKey, best.rightKey = childKeys(key, best)
	return best
}

// exactSplit scans all midpoints of the feature in sorted order. The
// order is sort.Slice's over the node's rows, computed once per node and
// feature and kept in e.
func (c *buildCtx) exactSplit(idx []int, e *memoEntry, fill bool, f int, totG, totH, base float64) split {
	col := c.cols[f]
	ord := e.rows[f*len(idx) : (f+1)*len(idx)]
	if fill {
		for k, i := range idx {
			ord[k] = int32(i)
		}
		sort.Slice(ord, func(a, b int) bool { return col[ord[a]] < col[ord[b]] })
	}
	var lg, lh float64
	best := split{feature: f}
	for k := 0; k < len(ord)-1; k++ {
		i := ord[k]
		lg += c.grad[i]
		lh += c.hess[i]
		v, next := col[i], col[ord[k+1]]
		if v == next {
			continue
		}
		if k+1 < c.p.minSamplesLeaf || len(ord)-k-1 < c.p.minSamplesLeaf {
			continue
		}
		gain := c.score(lg, lh, k+1) + c.score(totG-lg, totH-lh, len(ord)-k-1) - base
		if gain > best.gain {
			best.gain = gain
			best.threshold = (v + next) / 2
			best.ok = true
		}
	}
	return best
}

// histSplit bins the feature into equal-width histogram buckets and scans
// bucket boundaries — the LightGBM speed trick. The range and each row's
// bin are computed once per node and feature and kept in e; the buckets
// sum grad and hess in node row order.
func (c *buildCtx) histSplit(idx []int, e *memoEntry, fill bool, f int, totG, totH, base float64) split {
	nb := c.p.bins
	bins := e.rows[f*len(idx) : (f+1)*len(idx)]
	if fill {
		col := c.cols[f]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := col[i]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		e.lo[f], e.hi[f] = lo, hi
		if lo != hi {
			width := (hi - lo) / float64(nb)
			for k, i := range idx {
				b := int((col[i] - lo) / width)
				if b >= nb {
					b = nb - 1
				}
				bins[k] = int32(b)
			}
		}
	}
	lo, hi := e.lo[f], e.hi[f]
	if lo == hi {
		return split{}
	}
	width := (hi - lo) / float64(nb)
	gs, hs, ns := c.gs[f*nb:(f+1)*nb], c.hs[f*nb:(f+1)*nb], c.ns[f*nb:(f+1)*nb]
	clear(gs)
	clear(hs)
	clear(ns)
	for k, i := range idx {
		b := bins[k]
		gs[b] += c.grad[i]
		hs[b] += c.hess[i]
		ns[b]++
	}
	var lg, lh float64
	ln := 0
	best := split{feature: f}
	for b := 0; b < nb-1; b++ {
		lg += gs[b]
		lh += hs[b]
		ln += ns[b]
		if ln < c.p.minSamplesLeaf || len(idx)-ln < c.p.minSamplesLeaf {
			continue
		}
		gain := c.score(lg, lh, ln) + c.score(totG-lg, totH-lh, len(idx)-ln) - base
		if gain > best.gain {
			best.gain = gain
			best.threshold = lo + width*float64(b+1)
			best.ok = true
		}
	}
	return best
}

// buildTree grows one regression tree over the given rows.
func buildTree(ctx *buildCtx, idx []int) *regTree {
	t := &regTree{}
	if ctx.p.leafWise {
		buildLeafWise(ctx, t, idx)
	} else {
		buildDepthWise(ctx, t, idx, "", 0)
	}
	return t
}

func buildDepthWise(ctx *buildCtx, t *regTree, idx []int, key string, depth int) int {
	node := len(t.nodes)
	t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(idx)})
	if depth >= ctx.p.maxDepth || len(idx) < 2*ctx.p.minSamplesLeaf {
		return node
	}
	s := ctx.findSplit(idx, key)
	if !s.ok {
		return node
	}
	t.nodes[node].leaf = false
	t.nodes[node].feature = s.feature
	t.nodes[node].threshold = s.threshold
	l := buildDepthWise(ctx, t, s.leftIdx, s.leftKey, depth+1)
	r := buildDepthWise(ctx, t, s.rightIdx, s.rightKey, depth+1)
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

// candidate is a leaf eligible for splitting, ordered by gain.
type candidate struct {
	node  int
	idx   []int
	split split
	depth int
}

type candHeap []candidate

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].split.gain > h[j].split.gain }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any          { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// buildLeafWise grows best-gain-first until maxLeaves (LightGBM style).
func buildLeafWise(ctx *buildCtx, t *regTree, idx []int) {
	t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(idx)})
	leaves := 1
	maxLeaves := ctx.p.maxLeaves
	if maxLeaves <= 1 {
		return
	}
	h := &candHeap{}
	if s := ctx.findSplit(idx, ""); s.ok {
		heap.Push(h, candidate{node: 0, idx: idx, split: s, depth: 0})
	}
	for h.Len() > 0 && leaves < maxLeaves {
		c := heap.Pop(h).(candidate)
		n := c.node
		t.nodes[n].leaf = false
		t.nodes[n].feature = c.split.feature
		t.nodes[n].threshold = c.split.threshold
		l := len(t.nodes)
		t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(c.split.leftIdx)})
		r := len(t.nodes)
		t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(c.split.rightIdx)})
		t.nodes[n].left = l
		t.nodes[n].right = r
		leaves++ // one leaf became two
		if c.depth+1 < ctx.p.maxDepth {
			if s := ctx.findSplit(c.split.leftIdx, c.split.leftKey); s.ok {
				heap.Push(h, candidate{node: l, idx: c.split.leftIdx, split: s, depth: c.depth + 1})
			}
			if s := ctx.findSplit(c.split.rightIdx, c.split.rightKey); s.ok {
				heap.Push(h, candidate{node: r, idx: c.split.rightIdx, split: s, depth: c.depth + 1})
			}
		}
	}
}
