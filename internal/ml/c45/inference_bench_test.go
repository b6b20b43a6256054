package c45

import (
	"bytes"
	"testing"
)

// Serving-side inference benchmarks, wired into scripts/bench.sh and
// reports/BENCH.json. Convention: for the prediction benchmarks one
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

func benchFillMatrix(b *testing.B, ct *CompiledTree) *Matrix {
	b.Helper()
	d := synthDataset(benchBatchRows, 12, 78, 0.05)
	m := ct.NewMatrix(benchBatchRows)
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

// BenchmarkSnapshotLoad decodes the benchmark tree's snapshot from
// memory, the only kind served; ns/op is the full load cost
// (validation included). bench_report.py records it as
// snapshot_load_ms.
func BenchmarkSnapshotLoad(b *testing.B) {
	ct := benchCompiledTree(b)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ct, []byte(`{"task":"bench"}`)); err != nil {
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
