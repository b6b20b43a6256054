package c45

// Fuzz target for the compiled tree evaluator: any row — NaN, Inf,
// subnormals, huge magnitudes — must classify without panicking, and
// the answer must be one of the training classes.

import (
	"bytes"
	"math"
	"testing"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

func fuzzTree(f *testing.F) *CompiledTree {
	f.Helper()
	var insts []ml.Instance
	for rtt := 10.0; rtt <= 200; rtt += 10 {
		for loss := 0.0; loss <= 10; loss++ {
			cls := "good"
			if rtt > 100 {
				if loss > 5 {
					cls = "severe"
				} else {
					cls = "mild"
				}
			}
			insts = append(insts, ml.Instance{
				Features: metrics.Vector{"rtt": rtt, "loss": loss},
				Class:    cls,
			})
		}
	}
	tree := Default().TrainTree(ml.NewDataset(insts))
	ct, err := Compile(tree)
	if err != nil {
		f.Fatal(err)
	}
	return ct
}

// FuzzPredictBatch pins batch ≡ scalar over arbitrary row sets: for any
// mix of finite, NaN, ±Inf, subnormal and huge values — NaN rides the
// missing-value fork in both evaluators, so parity covers it too — the
// frontier sweep must classify every row exactly as PredictRow does,
// and the single-tree forest wrapper must agree as well.
func FuzzPredictBatch(f *testing.F) {
	ct := fuzzTree(f)

	f.Add(uint8(3), 50.0, 0.0, 150.0)
	f.Add(uint8(9), math.NaN(), math.Inf(1), math.Inf(-1))
	f.Add(uint8(17), math.MaxFloat64, math.SmallestNonzeroFloat64, 100.0)
	f.Add(uint8(0), 0.0, 0.0, 0.0)

	var s BatchScratch
	m := ct.NewMatrix(4)
	row := ct.NewRow()
	f.Fuzz(func(t *testing.T, n uint8, a, b, c float64) {
		rows := int(n % 33)
		vals := []float64{a, b, c}
		m.Reset()
		for r := 0; r < rows; r++ {
			at := m.AppendRow()
			for fi := range ct.Schema() {
				m.Set(at, fi, vals[(r+fi)%len(vals)])
			}
		}
		idx := make([]int32, rows)
		ct.PredictBatchIdx(m, &s, idx)
		for r := 0; r < rows; r++ {
			m.Row(r, row)
			want := ct.PredictRow(row)
			if got := ct.Classes()[idx[r]]; got != want {
				t.Fatalf("row %d of %d (%v,%v,%v): batch %q, scalar %q", r, rows, a, b, c, got, want)
			}
		}
	})
}

// FuzzOpenSnapshot feeds arbitrary bytes — seeded with a valid snapshot
// so the fuzzer mutates real structure — through the snapshot reader.
// Contract: never panic; corrupt input errors; input that decodes must
// yield a model that classifies without panicking (the validators must
// leave no traversal hazard behind, whatever the bytes were).
func FuzzOpenSnapshot(f *testing.F) {
	ct := fuzzTree(f)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ct, []byte(`{"task":"fuzz"}`)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	for _, at := range []int{9, 17, 21, len(good) / 2, len(good) - 2} {
		mut := append([]byte(nil), good...)
		mut[at] ^= 0x10
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		model, _, err := ReadSnapshot(data)
		if err != nil {
			if model != nil {
				t.Fatal("error return carries a model")
			}
			return
		}
		row := make([]float64, len(model.Schema()))
		for i := range row {
			row[i] = float64(i) - 1.5
		}
		cls := model.PredictRow(row)
		found := false
		for _, c := range model.Classes() {
			if c == cls {
				found = true
			}
		}
		if !found {
			t.Fatalf("decoded model predicted unknown class %q", cls)
		}
	})
}

func FuzzPredictRow(f *testing.F) {
	ct := fuzzTree(f)
	classes := map[string]bool{}
	for _, c := range ct.Classes() {
		classes[c] = true
	}

	f.Add(50.0, 0.0)
	f.Add(150.0, 8.0)
	f.Add(math.NaN(), math.NaN())
	f.Add(math.Inf(1), math.Inf(-1))
	f.Add(math.MaxFloat64, -math.MaxFloat64)
	f.Add(math.SmallestNonzeroFloat64, 0.0)

	f.Fuzz(func(t *testing.T, a, b float64) {
		row := make([]float64, len(ct.Schema()))
		vals := []float64{a, b}
		for i := range row {
			row[i] = vals[i%len(vals)]
		}
		got := ct.PredictRow(row)
		if !classes[got] {
			t.Fatalf("PredictRow(%v, %v) invented class %q", a, b, got)
		}
	})
}
