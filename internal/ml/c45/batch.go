package c45

import (
	"fmt"

	"vqprobe/internal/parallel"
)

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
	// Workers bounds the goroutines fanning per-tree evaluation of a
	// CompiledForest across internal/parallel. 0 or 1 evaluates trees
	// serially (the right choice inside an already-sharded serving
	// worker); negative selects GOMAXPROCS. Single-tree batches ignore
	// it. Any value produces bit-identical predictions: per-tree
	// contributions land in disjoint slots and are reduced serially in
	// tree order.
	Workers int

	head  []int32   // per node: first pending entry, -1 when empty
	erow  []int32   // per entry: matrix row
	enext []int32   // per entry: next entry pending at the same node
	ew    []float64 // per entry: fractional instance weight
	acc   []float64 // per row: class accumulator (rows × classes)

	f *forestScratch
}

// forestScratch extends a BatchScratch for ensemble evaluation.
type forestScratch struct {
	ws      []BatchScratch // per-worker tree scratch
	contrib []float64      // per tree: rows × classes vote contribution
	votes   []float64      // rows × classes reduced votes
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

func (s *BatchScratch) forest(workers int) *forestScratch {
	if s.f == nil {
		s.f = &forestScratch{}
	}
	if len(s.f.ws) < workers {
		s.f.ws = make([]BatchScratch, workers)
	}
	return s.f
}

// PredictBatchIdx classifies every matrix row through the ensemble,
// writing forest class indices (into Classes()) to out, which must
// have at least m.Rows() slots. Per-tree batch evaluation fans out
// across s.Workers goroutines; votes are reduced serially in tree
// order, so predictions are bit-identical to PredictRow for any worker
// count.
func (cf *CompiledForest) PredictBatchIdx(m *Matrix, s *BatchScratch, out []int32) {
	rows := m.Rows()
	nc := len(cf.classes)
	trees := len(cf.trees)
	workers := s.Workers
	if workers == 0 {
		workers = 1
	} else if workers < 0 {
		workers = 0 // parallel.Workers: GOMAXPROCS
	}
	workers = parallel.Workers(workers, trees)
	fs := s.forest(workers)

	fs.contrib = growF64(fs.contrib, trees*rows*nc)
	for i := range fs.contrib {
		fs.contrib[i] = 0
	}
	parallel.ForWorker(trees, workers, func(w, t int) {
		ws := &fs.ws[w]
		ct := cf.trees[t]
		tnc := len(ct.classes)
		ct.predictBatchAcc(m, ws)
		contrib := fs.contrib[t*rows*nc : (t+1)*rows*nc]
		cmap := cf.classMap[t]
		for r := 0; r < rows; r++ {
			a := ws.acc[r*tnc : (r+1)*tnc]
			var sum float64
			for _, v := range a {
				sum += v
			}
			if sum <= 0 {
				continue // mirrors PredictRow: a no-mass tree casts no vote
			}
			row := contrib[r*nc : (r+1)*nc]
			for c, v := range a {
				row[cmap[c]] += v / sum
			}
		}
	})

	// Serial reduction in tree order: the same vote-accumulation order
	// as the scalar loop (classes untouched by a tree contribute an
	// exact +0.0, which cannot perturb the sum).
	fs.votes = growF64(fs.votes, rows*nc)
	for i := range fs.votes {
		fs.votes[i] = 0
	}
	for t := 0; t < trees; t++ {
		contrib := fs.contrib[t*rows*nc : (t+1)*rows*nc]
		for i, v := range contrib {
			fs.votes[i] += v
		}
	}
	for r := 0; r < rows; r++ {
		votes := fs.votes[r*nc : (r+1)*nc]
		best, bi := -1.0, 0
		for i, v := range votes {
			if v > best {
				best, bi = v, i
			}
		}
		out[r] = int32(bi)
	}
}

// BatchPredictor is the uniform serving surface of CompiledTree and
// CompiledForest: schema-keyed matrix construction, scalar row
// prediction, and allocation-free batch prediction. serve.Model holds
// one without caring which ensemble shape backs it.
type BatchPredictor interface {
	Schema() []string
	Classes() []string
	Nodes() int
	Trees() int
	NewMatrix(capacity int) *Matrix
	PredictRow(row []float64) string
	PredictBatchIdx(m *Matrix, s *BatchScratch, out []int32)
}

var (
	_ BatchPredictor = (*CompiledTree)(nil)
	_ BatchPredictor = (*CompiledForest)(nil)
)
