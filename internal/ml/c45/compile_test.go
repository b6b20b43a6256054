package c45

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/testbed"
)

var (
	ctlOnce sync.Once
	ctlTree *Tree
	ctlData *ml.Dataset
)

// controlledTree trains a tree on a controlled-testbed dataset through
// the paper's feature construction + selection, the exact pipeline the
// serving engine compiles. The fixture is shared across tests; treat
// both returns as read-only.
func controlledTree(t testing.TB) (*Tree, *ml.Dataset) {
	t.Helper()
	ctlOnce.Do(func() {
		sessions := testbed.GenerateControlled(testbed.GenConfig{Sessions: 150, Seed: 7})
		d := testbed.ToDataset(sessions, []string{"mobile", "router", "server"}, testbed.ExactLabel)
		reduced, _, _ := features.Select(d, 0.02)
		ctlTree, ctlData = Default().TrainTree(reduced), reduced
	})
	return ctlTree, ctlData
}

// degrade returns a copy of fv with a deterministic subset of features
// removed, to exercise the missing-value (fractional) traversal.
func degrade(fv metrics.Vector, rng *rand.Rand) metrics.Vector {
	out := metrics.Vector{}
	for _, k := range fv.Names() {
		if rng.Intn(2) == 0 {
			out[k] = fv[k]
		}
	}
	return out
}

// sameAcc reports whether the compiled and the pointer traversal leave
// bit-identical class accumulators for fv — the sums Distribution and
// every compiled predictor take their answer from.
func sameAcc(ct *CompiledTree, tree *Tree, fv metrics.Vector) bool {
	a := make([]float64, len(ct.Classes()))
	ct.classifyRow(ct.RowFromVector(fv), a)
	b := make([]float64, len(tree.classes))
	tree.classify(tree.root, fv, 1, b)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompiledBitIdentical checks the acceptance criterion: compiled
// predictions (and class accumulators) match the pointer tree exactly,
// on complete vectors and on vectors with missing features.
func TestCompiledBitIdentical(t *testing.T) {
	tree, d := controlledTree(t)
	ct, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ct.Schema()), len(tree.Features()); got != want {
		t.Fatalf("schema size %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(42))
	for i, in := range d.Instances {
		for _, fv := range []metrics.Vector{in.Features, degrade(in.Features, rng)} {
			if got, want := ct.PredictRow(ct.RowFromVector(fv)), tree.Predict(fv); got != want {
				t.Fatalf("instance %d: compiled=%q tree=%q", i, got, want)
			}
			if !sameAcc(ct, tree, fv) {
				t.Fatalf("instance %d: class accumulators diverge", i)
			}
		}
	}
}

// TestCompiledRoundTripJSON is the serialize.go round trip: JSON ->
// pointer tree -> compiled evaluator must still be bit-identical to the
// original tree.
func TestCompiledRoundTripJSON(t *testing.T) {
	tree, d := controlledTree(t)
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Tree
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	ct, err := Compile(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i, in := range d.Instances {
		for _, fv := range []metrics.Vector{in.Features, degrade(in.Features, rng)} {
			if got, want := ct.PredictRow(ct.RowFromVector(fv)), tree.Predict(fv); got != want {
				t.Fatalf("instance %d: round-tripped compiled=%q original=%q", i, got, want)
			}
		}
	}
}

// TestCompiledRowReuse checks that one schema row refilled in place
// with FillRow classifies every instance like the pointer tree.
func TestCompiledRowReuse(t *testing.T) {
	tree, d := controlledTree(t)
	ct, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	row := ct.NewRow()
	for i, in := range d.Instances {
		ct.FillRow(in.Features, row)
		if got, want := ct.PredictRow(row), tree.Predict(in.Features); got != want {
			t.Fatalf("instance %d: reused-row predict %q, want %q", i, got, want)
		}
	}
}

func TestCompileForest(t *testing.T) {
	_, d := controlledTree(t)
	forest := NewForest(ForestConfig{Trees: 7, Seed: 3, Tree: Config{NoPrune: true}}).TrainForest(d)
	cf, err := CompileForest(forest)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i, in := range d.Instances {
		for _, fv := range []metrics.Vector{in.Features, degrade(in.Features, rng)} {
			if got, want := cf.PredictRow(cf.RowFromVector(fv)), forest.Predict(fv); got != want {
				t.Fatalf("instance %d: compiled forest=%q forest=%q", i, got, want)
			}
		}
	}
}

func TestCompileWithSchemaMissingFeature(t *testing.T) {
	tree, _ := controlledTree(t)
	if _, err := CompileWithSchema(tree, []string{"not_a_real_feature"}); err == nil {
		t.Fatal("expected an error compiling against a schema missing the split features")
	}
}

func TestCompileUntrained(t *testing.T) {
	if _, err := Compile(&Tree{}); err == nil {
		t.Fatal("expected an error compiling an untrained tree")
	}
}
