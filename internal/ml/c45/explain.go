package c45

import (
	"fmt"
	"strings"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

// PathStep is one internal (split) node traversed while classifying a
// single instance. Steps appear in visit order: depth-first, left
// branch before right, exactly the order classify/classifyRow evaluate.
type PathStep struct {
	Feature   string  `json:"feature"`
	Threshold float64 `json:"threshold"`
	// Value is the observed feature value; zero and meaningless when
	// Missing is set (NaN is not representable in JSON).
	Value   float64 `json:"value"`
	Missing bool    `json:"missing,omitempty"`
	// Branch is "le" (value <= threshold), "gt", or "both" when the
	// value was missing and the instance fractionally followed both
	// subtrees.
	Branch string `json:"branch"`
	// Weight is the instance fraction that reached this node (1 unless
	// an ancestor split on a missing value).
	Weight float64 `json:"weight"`
	// Primary marks the steps on the heaviest root-to-leaf path — the
	// ones Rule renders. At a missing split the heavier subtree stays
	// primary.
	Primary bool `json:"primary,omitempty"`
}

// LeafStep is one leaf reached by the traversal, with the training
// class distribution that the prediction aggregates.
type LeafStep struct {
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
	// Dist holds the leaf's training distribution (instance weights per
	// class, indexed like Classes).
	Dist    []float64 `json:"dist"`
	Primary bool      `json:"primary,omitempty"`
}

// Explanation is the full decision path of one prediction, produced by
// Tree.PredictExplain and CompiledTree.PredictRowExplain. The two
// evaluators visit nodes in the same order and combine weights with the
// same float expressions, so their explanations for the same instance
// are identical — byte-identical once JSON-encoded.
type Explanation struct {
	Class   string     `json:"class"`
	Classes []string   `json:"classes"`
	Path    []PathStep `json:"path"`
	Leaves  []LeafStep `json:"leaves"`
}

// Rule renders the primary decision path as one human-readable line:
//
//	root cause = wifi_interf_severe because retrans_rate=0.031 > 0.012 ∧ phy_rate=6.5 <= 24
//
// Thresholds use the same %.4g rendering as Tree.String, so a rule is
// cross-checkable against the printed tree.
func (e *Explanation) Rule() string {
	var b strings.Builder
	b.WriteString("root cause = ")
	b.WriteString(e.Class)
	first := true
	for _, s := range e.Path {
		if !s.Primary {
			continue
		}
		if first {
			b.WriteString(" because ")
			first = false
		} else {
			b.WriteString(" ∧ ")
		}
		switch {
		case s.Missing:
			fmt.Fprintf(&b, "%s missing (split %.4g)", s.Feature, s.Threshold)
		case s.Branch == "le":
			fmt.Fprintf(&b, "%s=%.4g <= %.4g", s.Feature, s.Value, s.Threshold)
		default:
			fmt.Fprintf(&b, "%s=%.4g > %.4g", s.Feature, s.Value, s.Threshold)
		}
	}
	if first {
		b.WriteString(" (leaf-only tree)")
	}
	return b.String()
}

// PredictExplain classifies fv like Predict and additionally returns
// every traversed node. The prediction itself is unchanged: the class
// is computed from the same accumulated distribution.
func (t *Tree) PredictExplain(fv metrics.Vector) *Explanation {
	e := &Explanation{Classes: t.classes}
	acc := make([]float64, len(t.classes))
	t.explain(t.root, fv, 1, true, acc, e)
	e.Class = t.classes[majority(acc)]
	return e
}

// explain mirrors classify exactly — same visit order, same weight
// arithmetic — while appending the traversal to e.
func (t *Tree) explain(n *node, fv metrics.Vector, w float64, primary bool, acc []float64, e *Explanation) {
	if n.isLeaf() {
		total := 0.0
		for _, d := range n.dist {
			total += d
		}
		if total <= 0 {
			acc[n.class] += w
		} else {
			for c, d := range n.dist {
				acc[c] += w * d / total
			}
		}
		e.Leaves = append(e.Leaves, LeafStep{
			Class: t.classes[n.class], Weight: w,
			Dist: append([]float64(nil), n.dist...), Primary: primary,
		})
		return
	}
	feat := t.features[n.feature]
	v, ok := fv[feat]
	if !ok || ml.IsMissing(v) {
		e.Path = append(e.Path, PathStep{
			Feature: feat, Threshold: n.threshold, Missing: true,
			Branch: "both", Weight: w, Primary: primary,
		})
		leftPrimary := primary && n.leftFrac >= 0.5
		t.explain(n.left, fv, w*n.leftFrac, leftPrimary, acc, e)
		t.explain(n.right, fv, w*(1-n.leftFrac), primary && !leftPrimary, acc, e)
		return
	}
	if v <= n.threshold {
		e.Path = append(e.Path, PathStep{
			Feature: feat, Threshold: n.threshold, Value: v,
			Branch: "le", Weight: w, Primary: primary,
		})
		t.explain(n.left, fv, w, primary, acc, e)
	} else {
		e.Path = append(e.Path, PathStep{
			Feature: feat, Threshold: n.threshold, Value: v,
			Branch: "gt", Weight: w, Primary: primary,
		})
		t.explain(n.right, fv, w, primary, acc, e)
	}
}

// eframe is one pending branch of an explaining traversal.
type eframe struct {
	n       int32
	w       float64
	primary bool
}

// PredictRowExplain classifies a schema-ordered row like PredictRow and
// returns the traversed path. Node visit order and weight arithmetic
// match Tree.PredictExplain node for node (see classifyRow), so for a
// tree compiled with Compile the explanations are identical.
func (ct *CompiledTree) PredictRowExplain(row []float64) *Explanation {
	e := &Explanation{Classes: ct.classes}
	acc := make([]float64, len(ct.classes))
	var local [24]eframe
	stack := local[:0]
	nd := &ct.nodes
	n, w, primary := int32(0), 1.0, true
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
			e.Leaves = append(e.Leaves, LeafStep{
				Class: ct.classes[nd.class[n]], Weight: w,
				Dist:    append([]float64(nil), ct.dists[nd.distOff[n]:nd.distOff[n]+nd.distLen[n]]...),
				Primary: primary,
			})
			if len(stack) == 0 {
				break
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n, w, primary = top.n, top.w, top.primary
			continue
		}
		v := row[f]
		if v != v { // NaN: missing at prediction time
			e.Path = append(e.Path, PathStep{
				Feature: ct.schema[f], Threshold: nd.threshold[n],
				Missing: true, Branch: "both", Weight: w, Primary: primary,
			})
			leftPrimary := primary && nd.leftFrac[n] >= 0.5
			stack = append(stack, eframe{nd.right[n], w * (1 - nd.leftFrac[n]), primary && !leftPrimary})
			n, w, primary = nd.left[n], w*nd.leftFrac[n], leftPrimary
			continue
		}
		if v <= nd.threshold[n] {
			e.Path = append(e.Path, PathStep{
				Feature: ct.schema[f], Threshold: nd.threshold[n],
				Value: v, Branch: "le", Weight: w, Primary: primary,
			})
			n = nd.left[n]
		} else {
			e.Path = append(e.Path, PathStep{
				Feature: ct.schema[f], Threshold: nd.threshold[n],
				Value: v, Branch: "gt", Weight: w, Primary: primary,
			})
			n = nd.right[n]
		}
	}
	e.Class = ct.classes[majority(acc)]
	return e
}
