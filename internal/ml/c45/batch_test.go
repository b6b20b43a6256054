package c45

import (
	"math"
	"math/rand"
	"testing"

	"vqprobe/internal/ml"
)

// fillMatrix appends every dataset instance to a fresh matrix sized for
// roughly half the rows, so the append path exercises grow().
func fillMatrix(ct *CompiledTree, d *ml.Dataset) *Matrix {
	m := ct.NewMatrix(len(d.Instances)/2 + 1)
	for i := range d.Instances {
		m.AppendVector(d.Instances[i].Features)
	}
	return m
}

// batchLabels classifies every matrix row in one PredictBatchIdx sweep
// and maps the class indices to labels.
func batchLabels(ct *CompiledTree, m *Matrix) []string {
	var s BatchScratch
	idx := make([]int32, m.Rows())
	ct.PredictBatchIdx(m, &s, idx)
	out := make([]string, len(idx))
	for r, i := range idx {
		out[r] = ct.Classes()[i]
	}
	return out
}

// TestPredictBatchBitIdentical pins the tentpole guarantee: the batch
// frontier sweep accumulates every row's class distribution in exactly
// the scalar DFS order, so the per-row accumulators — not just the
// argmax — are bit-identical to classifyRow's.
func TestPredictBatchBitIdentical(t *testing.T) {
	for _, miss := range []float64{0, 0.25} {
		d := synthDataset(500, 8, 42, miss)
		tr := New(Config{}).TrainTree(d)
		ct, err := Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		m := fillMatrix(ct, d)

		var s BatchScratch
		ct.predictBatchAcc(m, &s)

		nc := len(ct.Classes())
		row := ct.NewRow()
		acc := make([]float64, nc)
		for r := 0; r < m.Rows(); r++ {
			m.Row(r, row)
			for i := range acc {
				acc[i] = 0
			}
			ct.classifyRow(row, acc)
			for c := 0; c < nc; c++ {
				got, want := s.acc[r*nc+c], acc[c]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("miss=%v row %d class %d: batch acc %x, scalar %x", miss, r, c, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}

		preds := batchLabels(ct, m)
		for r := 0; r < m.Rows(); r++ {
			m.Row(r, row)
			if want := ct.PredictRow(row); preds[r] != want {
				t.Fatalf("miss=%v row %d: batch %q, scalar %q", miss, r, preds[r], want)
			}
		}
	}
}

// TestPredictBatchScratchReuse runs batches of shrinking and growing
// sizes through one scratch + one matrix, verifying reuse never leaks
// state between calls.
func TestPredictBatchScratchReuse(t *testing.T) {
	d := synthDataset(300, 5, 11, 0.1)
	tr := New(Config{}).TrainTree(d)
	ct, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var s BatchScratch
	m := ct.NewMatrix(4)
	row := ct.NewRow()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 3, 0, 128, 1, 17} {
		m.Reset()
		for i := 0; i < n; i++ {
			m.AppendVector(d.Instances[rng.Intn(len(d.Instances))].Features)
		}
		idx := make([]int32, m.Rows())
		ct.PredictBatchIdx(m, &s, idx)
		for r := 0; r < m.Rows(); r++ {
			m.Row(r, row)
			if got, want := ct.Classes()[idx[r]], ct.PredictRow(row); got != want {
				t.Fatalf("batch size %d row %d: got %q, want %q", n, r, got, want)
			}
		}
	}
}

// TestMatrixGrowPreservesRows pins the column-major re-stride: rows
// appended before a grow keep their values (including NaN holes).
func TestMatrixGrowPreservesRows(t *testing.T) {
	schema := []string{"a", "b", "c"}
	m := NewMatrix(schema, 2)
	vals := [][]float64{
		{1, 2, 3},
		{4, ml.Missing, 6},
		{7, 8, ml.Missing}, // triggers grow
		{10, 11, 12},
	}
	for _, v := range vals {
		m.AppendRowValues(v)
	}
	if m.Rows() != len(vals) {
		t.Fatalf("rows = %d, want %d", m.Rows(), len(vals))
	}
	for r, v := range vals {
		for f := range schema {
			got := m.At(r, f)
			if ml.IsMissing(v[f]) {
				if !ml.IsMissing(got) {
					t.Fatalf("row %d col %d: got %v, want missing", r, f, got)
				}
				continue
			}
			if got != v[f] {
				t.Fatalf("row %d col %d: got %v, want %v", r, f, got, v[f])
			}
		}
	}
}

// TestMatrixAppendVectorUnknownFeature checks features outside the
// schema are dropped and absent ones become missing.
func TestMatrixAppendVectorUnknownFeature(t *testing.T) {
	m := NewMatrix([]string{"rtt", "loss"}, 2)
	r := m.AppendVector(map[string]float64{"rtt": 30, "bogus": 99})
	if got := m.At(r, 0); got != 30 {
		t.Fatalf("rtt = %v, want 30", got)
	}
	if got := m.At(r, 1); !ml.IsMissing(got) {
		t.Fatalf("loss = %v, want missing", got)
	}
}
