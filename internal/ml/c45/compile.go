package c45

import (
	"fmt"
	"sort"

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

// CompiledTree is the flat, immutable serving form of a Tree.
type CompiledTree struct {
	schema  []string
	classes []string
	nodes   nodeArrays
	dists   []float64
	sindex  map[string]int32
}

// Compile flattens a trained tree using the tree's own feature list as
// the row schema.
func Compile(t *Tree) (*CompiledTree, error) {
	return CompileWithSchema(t, t.features)
}

// CompileWithSchema flattens a trained tree against an external feature
// schema (e.g. the union schema of a forest). Every feature the tree
// splits on must appear in the schema.
func CompileWithSchema(t *Tree, schema []string) (*CompiledTree, error) {
	if t == nil || t.root == nil {
		return nil, fmt.Errorf("c45: compiling an untrained tree")
	}
	sidx := make(map[string]int32, len(schema))
	for i, f := range schema {
		if _, dup := sidx[f]; dup {
			return nil, fmt.Errorf("c45: duplicate feature %q in schema", f)
		}
		sidx[f] = int32(i)
	}
	ct := &CompiledTree{
		schema:  append([]string{}, schema...),
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
	fidx, ok := ct.sindex[t.features[n.feature]]
	if !ok {
		return 0, fmt.Errorf("c45: split feature %q missing from schema", t.features[n.feature])
	}
	left, err := ct.emit(t, n.left)
	if err != nil {
		return 0, err
	}
	right, err := ct.emit(t, n.right)
	if err != nil {
		return 0, err
	}
	ct.nodes.feature[at] = fidx
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

// Trees returns 1: a CompiledTree is a single-member ensemble to
// callers holding a BatchPredictor.
func (ct *CompiledTree) Trees() int { return 1 }

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

// CompiledForest is the flat serving form of a bagged Forest: every
// tree compiled against the union feature schema, with tree-local class
// indices pre-mapped onto the forest's class list.
type CompiledForest struct {
	schema   []string
	classes  []string
	trees    []*CompiledTree
	classMap [][]int32
}

// CompileForest flattens a trained forest.
func CompileForest(f *Forest) (*CompiledForest, error) {
	if f == nil || len(f.trees) == 0 {
		return nil, fmt.Errorf("c45: compiling an untrained forest")
	}
	seen := map[string]bool{}
	for _, t := range f.trees {
		for _, feat := range t.features {
			seen[feat] = true
		}
	}
	schema := make([]string, 0, len(seen))
	for feat := range seen {
		schema = append(schema, feat)
	}
	sort.Strings(schema)

	fidx := make(map[string]int32, len(f.classes))
	for i, c := range f.classes {
		fidx[c] = int32(i)
	}
	cf := &CompiledForest{schema: schema, classes: append([]string{}, f.classes...)}
	for _, t := range f.trees {
		ct, err := CompileWithSchema(t, schema)
		if err != nil {
			return nil, err
		}
		cmap := make([]int32, len(t.classes))
		for i, c := range t.classes {
			gi, ok := fidx[c]
			if !ok {
				return nil, fmt.Errorf("c45: tree class %q unknown to forest", c)
			}
			cmap[i] = gi
		}
		cf.trees = append(cf.trees, ct)
		cf.classMap = append(cf.classMap, cmap)
	}
	return cf, nil
}

// Schema returns the union row layout (do not mutate).
func (cf *CompiledForest) Schema() []string { return cf.schema }

// Classes returns the forest's class labels in index order (do not
// mutate).
func (cf *CompiledForest) Classes() []string { return cf.classes }

// Trees returns the ensemble size.
func (cf *CompiledForest) Trees() int { return len(cf.trees) }

// Nodes returns the total flattened node count across the ensemble.
func (cf *CompiledForest) Nodes() int {
	n := 0
	for _, ct := range cf.trees {
		n += ct.Nodes()
	}
	return n
}

// RowFromVector converts a named feature vector into schema row form.
func (cf *CompiledForest) RowFromVector(fv metrics.Vector) []float64 {
	row := make([]float64, len(cf.schema))
	for i, f := range cf.schema {
		if v, ok := fv[f]; ok {
			row[i] = v
		} else {
			row[i] = ml.Missing
		}
	}
	return row
}

// PredictRow mirrors Forest.Predict: probability-weighted vote with
// deterministic tie-break by class order.
func (cf *CompiledForest) PredictRow(row []float64) string {
	votes := make([]float64, len(cf.classes))
	var acc []float64
	for ti, ct := range cf.trees {
		if cap(acc) < len(ct.classes) {
			acc = make([]float64, len(ct.classes))
		}
		acc = acc[:len(ct.classes)]
		for i := range acc {
			acc[i] = 0
		}
		ct.classifyRow(row, acc)
		var sum float64
		for _, v := range acc {
			sum += v
		}
		if sum <= 0 {
			continue
		}
		for c, v := range acc {
			votes[cf.classMap[ti][c]] += v / sum
		}
	}
	best, bi := -1.0, ""
	for i, cls := range cf.classes {
		if votes[i] > best {
			best, bi = votes[i], cls
		}
	}
	return bi
}
