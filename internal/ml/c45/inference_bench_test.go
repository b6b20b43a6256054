package c45

import (
	"bytes"
	"testing"
)

// Serving-side inference benchmarks, wired into scripts/bench.sh and
// reports/BENCH_PR8.json. Convention: for the prediction benchmarks one
// benchmark iteration is ONE prediction (batch benches advance i by the
// batch size), so ns/op is ns per predicted row and bench_report.py can
// derive predictions_per_sec = 1e9 / ns_op directly. Matrix fill is
// excluded: serving workers fill pooled matrices while draining their
// queues, so steady-state throughput is bounded by evaluation.

const benchBatchRows = 1024

func benchCompiledTree(b *testing.B) *CompiledTree {
	b.Helper()
	d := synthDataset(4000, 12, 77, 0.05)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		b.Fatal(err)
	}
	return ct
}

func benchFillMatrix(b *testing.B, bp BatchPredictor) *Matrix {
	b.Helper()
	d := synthDataset(benchBatchRows, 12, 78, 0.05)
	m := bp.NewMatrix(benchBatchRows)
	for i := range d.Instances {
		m.AppendVector(d.Instances[i].Features)
	}
	return m
}

// BenchmarkPredictRowScalar is the one-row-at-a-time baseline the batch
// engine is measured against. PredictRow allocates its class
// accumulator, so it reports 1 alloc/op.
func BenchmarkPredictRowScalar(b *testing.B) {
	ct := benchCompiledTree(b)
	m := benchFillMatrix(b, ct)
	rows := make([][]float64, m.Rows())
	for r := range rows {
		rows[r] = ct.NewRow()
		m.Row(r, rows[r])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.PredictRow(rows[i%len(rows)])
	}
}

// BenchmarkPredictBatch is the acceptance benchmark: single-tree batch
// prediction, ns/op = ns per row (target ≥ 5M predictions/sec/core).
func BenchmarkPredictBatch(b *testing.B) {
	ct := benchCompiledTree(b)
	m := benchFillMatrix(b, ct)
	var s BatchScratch
	idx := make([]int32, m.Rows())
	ct.PredictBatchIdx(m, &s, idx) // warm the scratch outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += m.Rows() {
		ct.PredictBatchIdx(m, &s, idx)
	}
}

func benchCompiledForest(b *testing.B, trees int) *CompiledForest {
	b.Helper()
	d := synthDataset(2000, 12, 79, 0.05)
	f := NewForest(ForestConfig{Trees: trees, Seed: 7, Tree: Config{NoPrune: true}}).TrainForest(d)
	cf, err := CompileForest(f)
	if err != nil {
		b.Fatal(err)
	}
	return cf
}

// BenchmarkForestPredictBatch pushes every row through a 15-tree
// ensemble serially (the shape inside an already-sharded serving
// worker); ns/op = ns per row, every tree visited.
func BenchmarkForestPredictBatch(b *testing.B) {
	cf := benchCompiledForest(b, 15)
	m := benchFillMatrix(b, cf)
	var s BatchScratch
	idx := make([]int32, m.Rows())
	cf.PredictBatchIdx(m, &s, idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += m.Rows() {
		cf.PredictBatchIdx(m, &s, idx)
	}
}

// BenchmarkForestPredictBatchParallel is the same ensemble fanned
// across all cores via internal/parallel — the vqfleet/-parallel shape.
func BenchmarkForestPredictBatchParallel(b *testing.B) {
	cf := benchCompiledForest(b, 15)
	m := benchFillMatrix(b, cf)
	s := BatchScratch{Workers: -1}
	idx := make([]int32, m.Rows())
	cf.PredictBatchIdx(m, &s, idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += m.Rows() {
		cf.PredictBatchIdx(m, &s, idx)
	}
}

// BenchmarkForestPredictVector measures the pointer-forest Predict hot
// path (vector resolved once per prediction, classifyMapped per tree).
func BenchmarkForestPredictVector(b *testing.B) {
	d := synthDataset(2000, 12, 79, 0.05)
	f := NewForest(ForestConfig{Trees: 15, Seed: 7, Tree: Config{NoPrune: true}}).TrainForest(d)
	fv := d.Instances[0].Features
	f.Predict(fv) // build the resolution maps outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(fv)
	}
}

// BenchmarkSnapshotLoad decodes a 25-tree forest snapshot from memory;
// ns/op is the full load cost (validation included) for a model of
// realistic serving size. bench_report.py records it as
// snapshot_load_ms.
func BenchmarkSnapshotLoad(b *testing.B) {
	cf := benchCompiledForest(b, 25)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, cf, []byte(`{"task":"bench"}`)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}
