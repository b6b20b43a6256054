package c45

import "fmt"

// Batch inference over the branch-free struct-of-arrays node layout.
//
// The scalar evaluator walks one row down the tree at a time: every
// step is a dependent load (node → feature → column value → child),
// so throughput is bounded by memory latency, not bandwidth. The batch
// evaluator inverts the loop — it processes N rows per node visit.
// Rows pending at each node are kept as per-node intrusive lists over
// a flat entry arena; a single ascending sweep over the node arrays
// drains every bucket, comparing all pending rows against one loaded
// (feature, threshold) pair and routing them to the children's
// buckets. Because nodes are emitted in preorder (children strictly
// after parents), the frontier sweep visits nodes in exactly the order
// the scalar go-left-stack-right traversal does, so each row's leaf
// contributions accumulate in the same order with the same float
// expressions: batch predictions are bit-identical to PredictRow's.
//
// Rows with a missing split value fork into fractional entries down
// both subtrees (C4.5 semantics), exactly mirroring the scalar stack.

// BatchScratch holds the reusable state of batch prediction calls:
// per-node frontier buckets, the entry arena, and per-row class
// accumulators. A zero value is ready to use; reusing one across calls
// makes the hot path allocation-free. Not safe for concurrent use —
// pool one per worker.
type BatchScratch struct {
	head  []int32   // per node: first pending entry, -1 when empty
	erow  []int32   // per entry: matrix row
	enext []int32   // per entry: next entry pending at the same node
	ew    []float64 // per entry: fractional instance weight
	acc   []float64 // per row: class accumulator (rows × classes)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// predictBatchAcc runs the frontier sweep for every matrix row,
// leaving per-row class accumulators in s.acc (rows × len(classes),
// row-major). The accumulated sums are bit-identical to running
// classifyRow per row.
func (ct *CompiledTree) predictBatchAcc(m *Matrix, s *BatchScratch) {
	if len(m.schema) != len(ct.schema) {
		panic(fmt.Sprintf("c45: matrix has %d columns, tree schema has %d", len(m.schema), len(ct.schema)))
	}
	rows := m.rows
	nc := len(ct.classes)
	s.acc = growF64(s.acc, rows*nc)
	for i := range s.acc {
		s.acc[i] = 0
	}
	if rows == 0 {
		return
	}

	nn := ct.nodes.len()
	s.head = growI32(s.head, nn)
	for i := range s.head {
		s.head[i] = -1
	}
	// Seed the root bucket with one full-weight entry per row.
	s.erow = growI32(s.erow, rows)
	s.enext = growI32(s.enext, rows)
	s.ew = growF64(s.ew, rows)
	for r := 0; r < rows; r++ {
		s.erow[r] = int32(r)
		s.enext[r] = int32(r + 1)
		s.ew[r] = 1
	}
	s.enext[rows-1] = -1
	s.head[0] = 0

	nd := &ct.nodes
	for n := 0; n < nn; n++ {
		e := s.head[n]
		if e < 0 {
			continue
		}
		f := nd.feature[n]
		if f < 0 { // leaf: resolve every pending row
			total := nd.total[n]
			if total <= 0 {
				cls := int(nd.class[n])
				for ; e >= 0; e = s.enext[e] {
					s.acc[int(s.erow[e])*nc+cls] += s.ew[e]
				}
				continue
			}
			dist := ct.dists[nd.distOff[n] : nd.distOff[n]+nd.distLen[n]]
			for ; e >= 0; e = s.enext[e] {
				a := s.acc[int(s.erow[e])*nc : int(s.erow[e])*nc+nc]
				w := s.ew[e]
				for c, d := range dist {
					a[c] += w * d / total
				}
			}
			continue
		}
		// Internal: one loaded split, N pending rows gathered from the
		// feature's contiguous column.
		col := m.col(f)
		l, r := nd.left[n], nd.right[n]
		thr := nd.threshold[n]
		lf := nd.leftFrac[n]
		for e >= 0 {
			next := s.enext[e]
			v := col[s.erow[e]]
			switch {
			case v != v: // NaN: missing — fork fractionally down both subtrees
				w := s.ew[e]
				s.ew[e] = w * lf
				s.enext[e] = s.head[l]
				s.head[l] = e
				s.erow = append(s.erow, s.erow[e])
				s.ew = append(s.ew, w*(1-lf))
				s.enext = append(s.enext, s.head[r])
				s.head[r] = int32(len(s.erow) - 1)
			case v <= thr:
				s.enext[e] = s.head[l]
				s.head[l] = e
			default:
				s.enext[e] = s.head[r]
				s.head[r] = e
			}
			e = next
		}
	}
}

// PredictBatchIdx classifies every matrix row, writing class indices
// (into Classes()) to out, which must have at least m.Rows() slots.
// Reusing s across calls makes the path allocation-free.
func (ct *CompiledTree) PredictBatchIdx(m *Matrix, s *BatchScratch, out []int32) {
	ct.predictBatchAcc(m, s)
	nc := len(ct.classes)
	for r := 0; r < m.rows; r++ {
		out[r] = int32(majority(s.acc[r*nc : (r+1)*nc]))
	}
}

// BatchPredictor is the serving surface of a CompiledTree:
// schema-keyed matrix construction, scalar and explained row
// prediction, and allocation-free batch prediction. serve.Model holds
// one; tests substitute a fake to poison the batch sweep.
type BatchPredictor interface {
	Schema() []string
	Classes() []string
	Nodes() int
	NewMatrix(capacity int) *Matrix
	PredictRow(row []float64) string
	PredictRowExplain(row []float64) *Explanation
	PredictBatchIdx(m *Matrix, s *BatchScratch, out []int32)
}

var _ BatchPredictor = (*CompiledTree)(nil)
