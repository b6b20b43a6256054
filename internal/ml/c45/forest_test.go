package c45

import (
	"math/rand"
	"testing"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

func TestForestSeparable(t *testing.T) {
	d := blobs(100, 20)
	f := NewForest(ForestConfig{Trees: 11, Seed: 1}).TrainForest(d)
	if f.Trees() != 11 {
		t.Fatalf("trees = %d", f.Trees())
	}
	if acc := ml.Evaluate(f, d).Accuracy(); acc < 0.98 {
		t.Errorf("forest accuracy %.3f on separable blobs", acc)
	}
}

func TestForestAtLeastMatchesTreeOnNoisyData(t *testing.T) {
	// Overlapping classes: bagging should not be (much) worse than a
	// single tree under cross-validation.
	rng := rand.New(rand.NewSource(21))
	var ins []ml.Instance
	for i := 0; i < 400; i++ {
		cls, off := "a", 0.0
		if i%2 == 0 {
			cls, off = "b", 1.2 // heavy overlap
		}
		ins = append(ins, ml.Instance{Features: metrics.Vector{
			"x": rng.NormFloat64() + off,
			"y": rng.NormFloat64() + off/2,
			"n": rng.Float64(),
		}, Class: cls})
	}
	d := ml.NewDataset(ins)
	tree := ml.CrossValidate(Default(), d, 5, rand.New(rand.NewSource(3)))
	forest := ml.CrossValidate(NewForest(ForestConfig{Trees: 15, Seed: 4}), d, 5, rand.New(rand.NewSource(3)))
	if forest.Accuracy() < tree.Accuracy()-0.05 {
		t.Errorf("forest %.3f much worse than single tree %.3f", forest.Accuracy(), tree.Accuracy())
	}
}

func TestForestDeterministic(t *testing.T) {
	d := blobs(80, 22)
	f1 := NewForest(ForestConfig{Trees: 7, Seed: 9}).TrainForest(d)
	f2 := NewForest(ForestConfig{Trees: 7, Seed: 9}).TrainForest(d)
	for i := 0; i < 30; i++ {
		fv := metrics.Vector{"x": float64(i)/3 - 4, "noise": 0.5}
		if f1.Predict(fv) != f2.Predict(fv) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestForestHandlesMissing(t *testing.T) {
	d := blobs(80, 23)
	f := NewForest(ForestConfig{Trees: 7, Seed: 9}).TrainForest(d)
	if got := f.Predict(metrics.Vector{}); got != "lo" && got != "hi" {
		t.Errorf("empty-vector prediction %q", got)
	}
}

// TestForestPredictMatchesDistributionWalk pins the resolve-once hot
// path against the definitionally-correct slow path: summing every
// tree's Distribution and tie-breaking by class order. The two must
// agree on every instance, including heavily-missing vectors.
func TestForestPredictMatchesDistributionWalk(t *testing.T) {
	d := synthDataset(400, 7, 31, 0.3)
	f := NewForest(ForestConfig{Trees: 9, Seed: 5, Tree: Config{NoPrune: true}}).TrainForest(d)
	slow := func(fv metrics.Vector) string {
		votes := map[string]float64{}
		for _, tree := range f.trees {
			for cls, p := range tree.Distribution(fv) {
				votes[cls] += p
			}
		}
		best, bi := -1.0, ""
		for _, cls := range f.classes {
			if v := votes[cls]; v > best {
				best, bi = v, cls
			}
		}
		return bi
	}
	for i, inst := range d.Instances {
		if got, want := f.Predict(inst.Features), slow(inst.Features); got != want {
			t.Fatalf("instance %d: hot path %q, Distribution walk %q", i, got, want)
		}
	}
}

// leafTree builds a single-leaf tree voting its entire mass for one
// class — the minimal ensemble member for tie-break tests.
func leafTree(classes []string, class int) *Tree {
	dist := make([]float64, len(classes))
	dist[class] = 1
	return &Tree{
		features: nil,
		classes:  append([]string{}, classes...),
		root:     &node{feature: -1, class: class, dist: dist},
	}
}

// TestForestTieBreakDeterministic pins the majority-vote tie-break: with
// an exactly tied vote, the class earliest in the forest's class order
// wins — on Forest.Predict AND on the compiled forms, which must agree.
func TestForestTieBreakDeterministic(t *testing.T) {
	classes := []string{"alpha", "beta", "gamma"}
	// One full-confidence vote each for beta and gamma: a 1.0—1.0 tie
	// that the class order must break toward beta, never gamma, and
	// never the unvoted alpha.
	f := &Forest{
		classes: classes,
		trees:   []*Tree{leafTree(classes, 2), leafTree(classes, 1)},
	}
	for i := 0; i < 10; i++ { // stable across repeated calls
		if got := f.Predict(metrics.Vector{}); got != "beta" {
			t.Fatalf("tie broke to %q, want beta", got)
		}
	}

	cf, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	row := cf.RowFromVector(metrics.Vector{})
	if got := cf.PredictRow(row); got != "beta" {
		t.Fatalf("compiled tie broke to %q, want beta", got)
	}
	m := cf.NewMatrix(1)
	m.AppendVector(metrics.Vector{})
	if got := batchLabels(cf, m); got[0] != "beta" {
		t.Fatalf("batch tie broke to %q, want beta", got[0])
	}
}
