package c45

import (
	"errors"
	"fmt"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

// This file is the serving-side counterpart of the recursive *node
// tree: Compile flattens a trained tree into a contiguous
// struct-of-arrays form with feature indices pre-resolved against a
// fixed schema, so a prediction is a loop over flat slices — no map
// lookups and no pointer chasing on the hot path. The arithmetic
// mirrors Tree.classify operation for operation, so compiled
// predictions are bit-identical to the pointer tree's.

// nodeArrays is the branch-free struct-of-arrays node layout: one flat
// slice per field instead of a slice of node structs. Nodes are stored
// in preorder, so both children of an internal node always have a
// HIGHER index than their parent — the invariant that lets
// PredictBatchIdx resolve a whole frontier in one ascending index sweep
// and lets the snapshot loader reject corrupt child pointers without
// reachability analysis. The arrays are also exactly what
// WriteSnapshot serializes: loading a snapshot is a single sequential
// decode back into this layout, with no per-node reconstruction.
type nodeArrays struct {
	feature []int32 // schema row index of the split feature; -1 for leaves
	left    []int32
	right   []int32
	class   []int32 // majority class (leaves)
	distOff []int32 // leaf class distribution, as a window into dists
	distLen []int32

	threshold []float64
	leftFrac  []float64
	total     []float64 // leaf distribution mass
}

func (na *nodeArrays) len() int { return len(na.feature) }

// push appends one zeroed leaf-shaped node and returns its index.
func (na *nodeArrays) push() int32 {
	at := int32(len(na.feature))
	na.feature = append(na.feature, -1)
	na.left = append(na.left, 0)
	na.right = append(na.right, 0)
	na.class = append(na.class, 0)
	na.distOff = append(na.distOff, 0)
	na.distLen = append(na.distLen, 0)
	na.threshold = append(na.threshold, 0)
	na.leftFrac = append(na.leftFrac, 0)
	na.total = append(na.total, 0)
	return at
}

// ErrMalformedTree is wrapped by every Compile error about the tree's
// structure: an internal node without both children, a split on a
// feature outside the schema, or a leaf whose class lies outside the
// class table. A model file is untrusted input, so these are errors,
// never panics.
var ErrMalformedTree = errors.New("c45: malformed tree")

// CompiledTree is the flat, immutable serving form of a Tree.
type CompiledTree struct {
	schema  []string
	classes []string
	nodes   nodeArrays
	dists   []float64
	sindex  map[string]int32
}

// Compile flattens a trained tree, using the tree's own feature list
// as the row schema.
func Compile(t *Tree) (*CompiledTree, error) {
	if t == nil || t.root == nil {
		return nil, fmt.Errorf("c45: compiling an untrained tree")
	}
	sidx := make(map[string]int32, len(t.features))
	for i, f := range t.features {
		if _, dup := sidx[f]; dup {
			return nil, fmt.Errorf("c45: duplicate feature %q in schema", f)
		}
		sidx[f] = int32(i)
	}
	ct := &CompiledTree{
		schema:  append([]string{}, t.features...),
		classes: append([]string{}, t.classes...),
		sindex:  sidx,
	}
	if _, err := ct.emit(t, t.root); err != nil {
		return nil, err
	}
	return ct, nil
}

// emit appends n (and, preorder, its subtree) and returns its index.
func (ct *CompiledTree) emit(t *Tree, n *node) (int32, error) {
	at := ct.nodes.push()
	if n.isLeaf() {
		if n.class < 0 || n.class >= len(t.classes) {
			return 0, fmt.Errorf("%w: leaf class %d of %d", ErrMalformedTree, n.class, len(t.classes))
		}
		total := 0.0
		for _, d := range n.dist {
			total += d
		}
		ct.nodes.class[at] = int32(n.class)
		ct.nodes.total[at] = total
		ct.nodes.distOff[at] = int32(len(ct.dists))
		ct.nodes.distLen[at] = int32(len(n.dist))
		ct.dists = append(ct.dists, n.dist...)
		return at, nil
	}
	if n.feature >= len(t.features) {
		return 0, fmt.Errorf("%w: node splits on feature %d of %d", ErrMalformedTree, n.feature, len(t.features))
	}
	if n.left == nil || n.right == nil {
		return 0, fmt.Errorf("%w: internal node %d lacks a child", ErrMalformedTree, at)
	}
	left, err := ct.emit(t, n.left)
	if err != nil {
		return 0, err
	}
	right, err := ct.emit(t, n.right)
	if err != nil {
		return 0, err
	}
	ct.nodes.feature[at] = int32(n.feature)
	ct.nodes.threshold[at] = n.threshold
	ct.nodes.leftFrac[at] = n.leftFrac
	ct.nodes.left[at], ct.nodes.right[at] = left, right
	return at, nil
}

// Schema returns the row layout: feature name per row index (do not
// mutate).
func (ct *CompiledTree) Schema() []string { return ct.schema }

// Classes returns the class labels in index order (do not mutate).
func (ct *CompiledTree) Classes() []string { return ct.classes }

// Nodes returns the flattened node count.
func (ct *CompiledTree) Nodes() int { return ct.nodes.len() }

// FeatureIndex returns the row index of a feature, or -1.
func (ct *CompiledTree) FeatureIndex(name string) int {
	if i, ok := ct.sindex[name]; ok {
		return int(i)
	}
	return -1
}

// NewRow allocates a schema-sized row with every value missing.
func (ct *CompiledTree) NewRow() []float64 {
	row := make([]float64, len(ct.schema))
	for i := range row {
		row[i] = ml.Missing
	}
	return row
}

// FillRow writes fv into row (which must be schema-sized); features
// absent from fv become missing values.
func (ct *CompiledTree) FillRow(fv metrics.Vector, row []float64) {
	for i, f := range ct.schema {
		if v, ok := fv[f]; ok {
			row[i] = v
		} else {
			row[i] = ml.Missing
		}
	}
}

// RowFromVector converts a named feature vector into schema row form.
func (ct *CompiledTree) RowFromVector(fv metrics.Vector) []float64 {
	row := make([]float64, len(ct.schema))
	ct.FillRow(fv, row)
	return row
}

// cframe is one pending branch of a missing-value traversal.
type cframe struct {
	n int32
	w float64
}

// classifyRow accumulates the weighted leaf distributions for row into
// acc, visiting nodes in exactly the order Tree.classify recurses so
// float accumulation is bit-identical. Because nodes are stored in
// preorder, this go-left-stack-right traversal visits nodes in strictly
// ascending index order — the property PredictBatchIdx exploits.
func (ct *CompiledTree) classifyRow(row []float64, acc []float64) {
	var local [24]cframe
	stack := local[:0]
	nd := &ct.nodes
	n, w := int32(0), 1.0
	for {
		f := nd.feature[n]
		if f < 0 {
			if nd.total[n] <= 0 {
				acc[nd.class[n]] += w
			} else {
				for c, d := range ct.dists[nd.distOff[n] : nd.distOff[n]+nd.distLen[n]] {
					acc[c] += w * d / nd.total[n]
				}
			}
			if len(stack) == 0 {
				return
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n, w = top.n, top.w
			continue
		}
		v := row[f]
		if v != v { // NaN: missing at prediction time
			stack = append(stack, cframe{nd.right[n], w * (1 - nd.leftFrac[n])})
			n, w = nd.left[n], w*nd.leftFrac[n]
			continue
		}
		if v <= nd.threshold[n] {
			n = nd.left[n]
		} else {
			n = nd.right[n]
		}
	}
}

// PredictRow classifies a schema-ordered row.
func (ct *CompiledTree) PredictRow(row []float64) string {
	acc := make([]float64, len(ct.classes))
	ct.classifyRow(row, acc)
	return ct.classes[majority(acc)]
}
