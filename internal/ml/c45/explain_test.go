package c45

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

// tinyTree builds a two-split tree by hand:
//
//	rtt <= 100 ? (loss <= 1 ? good : lan) : wan
func tinyTree() *Tree {
	leaf := func(class int, dist []float64) *node {
		return &node{feature: -1, class: class, dist: dist}
	}
	return &Tree{
		features: []string{"rtt", "loss"},
		classes:  []string{"good", "lan", "wan"},
		root: &node{
			feature: 0, threshold: 100, leftFrac: 0.75,
			left: &node{
				feature: 1, threshold: 1, leftFrac: 0.6,
				left:  leaf(0, []float64{9, 1, 0}),
				right: leaf(1, []float64{1, 5, 0}),
			},
			right: leaf(2, []float64{0, 1, 7}),
		},
	}
}

func TestPredictExplainPath(t *testing.T) {
	tree := tinyTree()
	e := tree.PredictExplain(metrics.Vector{"rtt": 150, "loss": 0.5})
	if e.Class != "wan" {
		t.Fatalf("class = %q, want wan", e.Class)
	}
	if len(e.Path) != 1 || len(e.Leaves) != 1 {
		t.Fatalf("path %d leaves %d, want 1/1", len(e.Path), len(e.Leaves))
	}
	s := e.Path[0]
	if s.Feature != "rtt" || s.Threshold != 100 || s.Value != 150 || s.Branch != "gt" || !s.Primary || s.Weight != 1 {
		t.Fatalf("step wrong: %+v", s)
	}
	if l := e.Leaves[0]; l.Class != "wan" || l.Weight != 1 || !l.Primary {
		t.Fatalf("leaf wrong: %+v", l)
	}

	e = tree.PredictExplain(metrics.Vector{"rtt": 80, "loss": 4})
	if e.Class != "lan" {
		t.Fatalf("class = %q, want lan", e.Class)
	}
	if len(e.Path) != 2 || e.Path[0].Branch != "le" || e.Path[1].Branch != "gt" {
		t.Fatalf("path wrong: %+v", e.Path)
	}
}

func TestPredictExplainMissing(t *testing.T) {
	tree := tinyTree()
	// rtt missing: both subtrees traversed, left (frac 0.75) primary.
	e := tree.PredictExplain(metrics.Vector{"loss": 4})
	if len(e.Path) != 2 {
		t.Fatalf("path len %d, want 2 (missing root + loss split)", len(e.Path))
	}
	root := e.Path[0]
	if !root.Missing || root.Branch != "both" || !root.Primary || root.Value != 0 {
		t.Fatalf("missing root step wrong: %+v", root)
	}
	if e.Path[1].Feature != "loss" || !e.Path[1].Primary || e.Path[1].Weight != 0.75 {
		t.Fatalf("left subtree step wrong: %+v", e.Path[1])
	}
	// Leaves: loss>1 leaf (weight .75, primary) then wan leaf (.25).
	if len(e.Leaves) != 2 {
		t.Fatalf("leaves %d, want 2", len(e.Leaves))
	}
	if !e.Leaves[0].Primary || e.Leaves[0].Weight != 0.75 || e.Leaves[1].Primary || e.Leaves[1].Weight != 0.25 {
		t.Fatalf("leaf weights wrong: %+v", e.Leaves)
	}
	if e.Class != tree.Predict(metrics.Vector{"loss": 4}) {
		t.Fatal("explain class diverges from Predict")
	}
}

func TestRuleRendering(t *testing.T) {
	tree := tinyTree()
	rule := tree.PredictExplain(metrics.Vector{"rtt": 80, "loss": 4}).Rule()
	want := "root cause = lan because rtt=80 <= 100 ∧ loss=4 > 1"
	if rule != want {
		t.Fatalf("rule = %q, want %q", rule, want)
	}
	rule = tree.PredictExplain(metrics.Vector{"loss": 0.2}).Rule()
	if !strings.Contains(rule, "rtt missing (split 100)") || !strings.Contains(rule, "loss=0.2 <= 1") {
		t.Fatalf("missing-value rule = %q", rule)
	}
}

// TestExplainByteIdentical is the PR's acceptance criterion: for a tree
// compiled with Compile, the compiled evaluator's explanation is
// byte-identical (as JSON) to the interpreted tree's, on complete and
// on degraded (missing-value) vectors, across the controlled dataset.
func TestExplainByteIdentical(t *testing.T) {
	tree, d := controlledTree(t)
	ct, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i, in := range d.Instances {
		for _, fv := range []metrics.Vector{in.Features, degrade(in.Features, rng)} {
			ei := tree.PredictExplain(fv)
			ec := ct.PredictRowExplain(ct.RowFromVector(fv))
			bi, err := json.Marshal(ei)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := json.Marshal(ec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bi, bc) {
				t.Fatalf("instance %d: explanations diverge\ninterpreted: %s\ncompiled:    %s", i, bi, bc)
			}
			if ei.Class != tree.Predict(fv) {
				t.Fatalf("instance %d: explain class %q != Predict %q", i, ei.Class, tree.Predict(fv))
			}
			if ei.Rule() != ec.Rule() {
				t.Fatalf("instance %d: rules diverge", i)
			}
		}
	}
}

// TestExplainRowMatchesVector checks the row-based entry point against
// the vector-based one, including explicit NaN missing markers.
func TestExplainRowMatchesVector(t *testing.T) {
	tree, d := controlledTree(t)
	ct, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	in := d.Instances[0].Features
	row := ct.NewRow()
	for i, f := range ct.Schema() {
		if v, ok := in[f]; ok && i%2 == 0 {
			row[i] = v
		} else {
			row[i] = ml.Missing
		}
	}
	fv := metrics.Vector{}
	for i, f := range ct.Schema() {
		if !ml.IsMissing(row[i]) {
			fv[f] = row[i]
		}
	}
	a, _ := json.Marshal(ct.PredictRowExplain(row))
	b, _ := json.Marshal(tree.PredictExplain(fv))
	if !bytes.Equal(a, b) {
		t.Fatalf("row explain diverges:\n%s\n%s", a, b)
	}
}
