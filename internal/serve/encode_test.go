package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"vqprobe/internal/ml/c45"
)

// checkEncoding fails t unless appendResult writes r exactly as
// json.Marshal does, newline added, after whatever dst already held.
func checkEncoding(t *testing.T, r *Result) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := appendResult([]byte("prev\n"), r)
	if err != nil {
		t.Fatalf("%+v: %v", r, err)
	}
	if !bytes.Equal(got[5:], want) || string(got[:5]) != "prev\n" {
		t.Fatalf("appendResult wrote\n%q\nencoding/json\n%q", got[5:], want)
	}
}

// explanation is a small decision path carrying s in every string
// field, so the fuzzer's strings reach Explain's rendering too.
func explanation(s string) *c45.Explanation {
	return &c45.Explanation{
		Class:   s,
		Classes: []string{s, "good"},
		Path:    []c45.PathStep{{Feature: s, Threshold: 0.125, Value: 3e-9, Branch: "gt", Weight: 1, Primary: true}},
		Leaves:  []c45.LeafStep{{Class: s, Weight: 1, Dist: []float64{2.5, 0}, Primary: true}},
	}
}

// encodingSeeds are the strings whose escaping encoding/json does not
// leave to the common path: HTML-sensitive bytes, every control-byte
// form, quote and backslash, DEL, invalid and truncated UTF-8, the
// JavaScript line separators and ordinary multi-byte text.
var encodingSeeds = []string{
	"", "session-42", "lan_cong_severe", `<script>&amp;</script>`, "a\"b\\c", "\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f",
	"\xff\xfe", "\xe2\x80", "a\xc3", "\u2028\u2029", "line\u2028sep", "é😀日本", "\ufffd", "\xed\xa0\x80",
	"root cause = wan_severe because rtt=200 > 150 ∧ loss=8 <= 9",
}

func TestAppendResultMatchesMarshal(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	checkEncoding(t, &Result{})
	for _, s := range encodingSeeds {
		checkEncoding(t, &Result{ID: s})
		checkEncoding(t, &Result{ID: s, Class: s, Severity: s, Cause: s, Rule: s, TraceID: s, Err: s})
		checkEncoding(t, &Result{Err: s})
		checkEncoding(t, &Result{Cause: s, Explain: explanation(s)})
	}
	r := m.DiagnoseExplain(fv(180, 9))
	r.ID, r.TraceID = "s1", "1f"
	checkEncoding(t, &r)
}

// FuzzAppendResult checks the /diagnose encoder against encoding/json
// on arbitrary field strings, with and without an explanation: the
// bytes must be the same.
func FuzzAppendResult(f *testing.F) {
	for i, s := range encodingSeeds {
		f.Add(s, "good", "good", "good", "", "", "", i%2 == 0)
		f.Add("id", s, "", s, s, "", s, i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, id, class, severity, cause, rule, traceID, errMsg string, explain bool) {
		r := Result{ID: id, Class: class, Severity: severity, Cause: cause, Rule: rule, TraceID: traceID, Err: errMsg}
		if explain {
			r.Explain = explanation(class + id)
		}
		checkEncoding(t, &r)
	})
}
