package reqscan_test

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"vqprobe/internal/reqscan"
	"vqprobe/internal/serve"
)

// parityLines are the lines whose handling by encoding/json the scanner
// must keep: each is checked against json.Unmarshal into serve.Request.
var parityLines = []string{
	`{"id":"a","features":{"mobile.rtt":50,"mobile.loss":0},"explain":true}`,
	`{"ID":"a","Features":{"mobile.rtt":1},"Explain":true}`,
	`{"featureſ":{"mobile.rtt":1}}`,
	`{"features":{"mobile.rtt":1},"features":{"mobile.loss":2}}`,
	`{"features":{"mobile.rtt":1},"features":null}`,
	`{"features":{"mobile.rtt":1,"mobile.rtt":2}}`,
	`{"id":"a","id":"b"}`,
	`{"features":{"mobile.rtt":null}}`,
	`{"features":{"mobile.rtt":1e400}}`,
	`{"features":{"other":1e400}}`,
	`{"features":{"other":-1e400}}`,
	`{"other":1e400}`,
	`{"features":{"mobile.rtt":1e-400}}`,
	`{"features":{"mobile.rtt":-0}}`,
	`{"features":{"mobile.rtt":"x"}}`,
	`{"features":{"other":"x"}}`,
	`{"features":{"other":true}}`,
	`{"features":{"other":{}}}`,
	`{"features":{"other":[]}}`,
	`{"features":[]}`,
	`{"features":1}`,
	`{"id":5}`,
	`{"id":null}`,
	`{"id":"a","id":null}`,
	`{"explain":1}`,
	`{"explain":"true"}`,
	`{"explain":null}`,
	`{"explain":true,"explain":null}`,
	`{"unknown":{"a":[1,2,{"b":null}]},"id":"u"}`,
	`null`,
	` null `,
	`{}`,
	` {} `,
	"{}\r",
	`true`,
	`5`,
	`"s"`,
	`[]`,
	`{} {}`,
	``,
	` `,
	`{"features":{"mobile.rtt":7}}`,
	`{"id":"esc"}`,
	`{"id":"\ud800"}`,
	`{"id":"😀"}`,
	`{"id":"\ud800A"}`,
	"{\"id\":\"\xff\xfe\"}",
	"{\"features\":{\"mobile.rtt\xff\":1}}",
	`{"id":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"id":"\x"}`,
	`{"id":"\u12"}`,
	"{\"id\":\"a\tb\"}",
	`{"features":{"mobile.rtt":01}}`,
	`{"features":{"mobile.rtt":1.}}`,
	`{"features":{"mobile.rtt":.5}}`,
	`{"features":{"mobile.rtt":1e}}`,
	`{"features":{"mobile.rtt":-}}`,
	`{"features":{"mobile.rtt":+1}}`,
	`{"features":{"mobile.rtt":1.5E+3}}`,
	`{"features":{"mobile.rtt":1,}}`,
	`{"a":1,}`,
	`{"a" 1}`,
	`{"a":tru}`,
	`{"a":nul}`,
	`{"a":[1,]}`,
	`{"a":[}`,
	`{"a":{]}`,
	`{"a":{"b"}}`,
	`{"id":"K","features":{"K":1}}`,
	"{\"features\":{\"mobile.rtt\":" + strings.Repeat("9", 400) + "}}",
	"{\"features\":{\"other\":" + strings.Repeat("9", 400) + "}}",
	"{\"features\":{\"other\":1" + strings.Repeat("0", 120) + "e200}}",
	"{\"features\":{\"other\":1e" + strings.Repeat("0", 30) + "5}}",
	`{"features":{"other":1.7976931348623157e308}}`,
	`{"features":{"other":1.7976931348623159e308}}`,
	deep(9999),
	deep(10000),
	"[" + strings.Repeat("[", 9999) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10000),
}

// boundaryLines put each byte the scanner's word loops stop at, in a
// key, in the id and in an unknown field's string, at every offset
// 0–23 from the string's start, so it falls at each place in a 16-byte
// step and in the byte-at-a-time tail: a closing quote, escapes, control
// bytes, DEL (plain), multi-byte characters, invalid UTF-8 and \u
// escapes. Digit runs of every length 1–24 stand in each part of a
// number, and one line is cut short at every byte.
func boundaryLines() []string {
	specials := []string{`"`, `\"`, `\\`, `\/`, "\x00", "\x1f", "\x7f", "é", "😀", "\xff", `\u00e9`, `\ud83d\ude00`, `\u12`}
	var lines []string
	for off := 0; off < 24; off++ {
		pad := strings.Repeat("k", off)
		for _, sp := range specials {
			str := pad + sp + "tail"
			lines = append(lines,
				`{"features":{"`+str+`":1,"mobile.rtt":2}}`,
				`{"id":"`+str+`"}`,
				`{"x":"`+str+`","id":"a"}`,
			)
		}
	}
	const digits = "123456789012345678901234"
	for n := 1; n <= len(digits); n++ {
		d := digits[:n]
		for _, num := range []string{d, "-" + d, "0" + d, "0." + d, d + "." + d, "-" + d + ".5", d + "e" + d, "1.5E+" + d, "1e-" + d, d + "."} {
			lines = append(lines, `{"features":{"mobile.rtt":`+num+`,"other":`+num+`}}`)
		}
	}
	full := `{"id":"session-0123456789abcdef","features":{"mobile.tcp_c2s_rtt_ms_avg":566.5615751722809,"mobile.rtt":1234567890123456789e-3}}`
	for n := range full {
		lines = append(lines, full[:n])
	}
	return lines
}

// deep is a request whose unknown field nests n arrays, so the line's
// depth is n+1.
func deep(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// wanted is the fuzz target's wanted set: fixed names plus every other
// key of the line's own features, so each line has wanted and
// unwanted keys. The names are distinct, so names[i] has slot i.
func wanted(features map[string]float64) []string {
	names := []string{"mobile.rtt", "mobile.loss", "K", "a"}
	extra := make([]string, 0, len(features))
	for k := range features {
		if len(k)%2 == 0 && !slices.Contains(names, k) {
			extra = append(extra, k)
		}
	}
	slices.Sort(extra)
	return append(names, extra...)
}

// checkParity scans line and fails t unless the scanner and
// encoding/json agree on it: the same verdict, id and explain, and
// slot by slot the same value, bit for bit, with a key encoding/json
// did not store read as NaN. The slots start dirty, so a slot Scan
// failed to reset shows.
func checkParity(t *testing.T, line []byte) {
	t.Helper()
	var want serve.Request
	errJ := json.Unmarshal(line, &want)
	names := wanted(want.Features)
	vals := make([]float64, len(names))
	for i := range vals {
		vals[i] = 42
	}
	got, errS := reqscan.Scan(line, reqscan.NewKeys(names...), vals)
	if (errJ == nil) != (errS == nil) {
		t.Fatalf("%q: encoding/json error %v, scanner error %v", trim(line), errJ, errS)
	}
	if errJ != nil {
		return
	}
	if got.ID != want.ID || got.Explain != want.Explain {
		t.Fatalf("%q: scanned id %q explain %v, encoding/json %q %v", trim(line), got.ID, got.Explain, want.ID, want.Explain)
	}
	for slot, k := range names {
		vj, okj := want.Features[k]
		vs := vals[slot]
		if math.IsInf(vs, 0) {
			t.Fatalf("%q: feature %q decoded to %v; a decoded row carries no non-finite value", trim(line), k, vs)
		}
		if oks := !math.IsNaN(vs); okj != oks || oks && math.Float64bits(vj) != math.Float64bits(vs) {
			t.Fatalf("%q: feature %q scanned (%v, %v), encoding/json (%v, %v)", trim(line), k, vs, oks, vj, okj)
		}
	}
}

func trim(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "…"
	}
	return string(b)
}

func TestScanParity(t *testing.T) {
	for _, l := range parityLines {
		checkParity(t, []byte(l))
	}
	for _, l := range boundaryLines() {
		checkParity(t, []byte(l))
	}
}

// scanned is a scanned line's wanted values by name; an absent key
// (NaN slot) has none.
func scanned(names []string, vals []float64) map[string]float64 {
	out := map[string]float64{}
	for slot, n := range names {
		if !math.IsNaN(vals[slot]) {
			out[n] = vals[slot]
		}
	}
	return out
}

// TestScanValues pins what the parity cases read, beyond agreeing
// with encoding/json.
func TestScanValues(t *testing.T) {
	names := []string{"mobile.rtt", "mobile.loss"}
	keys := reqscan.NewKeys(names...)
	vals := make([]float64, keys.Len())
	for _, tc := range []struct {
		line    string
		id      string
		explain bool
		feats   map[string]float64 // wanted keys present
	}{
		{line: `{"ID":"x","Explain":true,"FEATURES":{"mobile.rtt":3}}`, id: "x", explain: true, feats: map[string]float64{"mobile.rtt": 3}},
		{line: `{"featureſ":{"mobile.rtt":1}}`, feats: map[string]float64{"mobile.rtt": 1}},
		{line: `{"features":{"mobile.rtt":1},"features":{"mobile.loss":2}}`, feats: map[string]float64{"mobile.rtt": 1, "mobile.loss": 2}},
		{line: `{"features":{"mobile.rtt":1},"features":null}`},
		{line: `{"features":{"mobile.rtt":1},"features":null,"features":{"mobile.loss":2}}`, feats: map[string]float64{"mobile.loss": 2}},
		{line: `{"features":{"mobile.rtt":1,"mobile.rtt":2,"other":9}}`, feats: map[string]float64{"mobile.rtt": 2}},
		{line: `{"features":{"mobile.rtt":null}}`, feats: map[string]float64{"mobile.rtt": 0}},
		{line: `{"features":{"mobile.rtt":7}}`, feats: map[string]float64{"mobile.rtt": 7}},
		{line: `{"features":{"mobile\u002ertt":5,"mobil\u0065.loss":6}}`, feats: map[string]float64{"mobile.rtt": 5, "mobile.loss": 6}},
		{line: `{"id":"a","id":null,"explain":true,"explain":null}`, id: "a", explain: true},
		{line: `{"id":"\ud800x"}`, id: "�x"},
		{line: "{\"id\":\"\xff\"}", id: "�"},
		{line: `null`},
	} {
		got, err := reqscan.Scan([]byte(tc.line), keys, vals)
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		feats := scanned(names, vals)
		if got.ID != tc.id || got.Explain != tc.explain || len(feats) != len(tc.feats) {
			t.Fatalf("%s: got %+v %v", tc.line, got, feats)
		}
		for k, v := range tc.feats {
			if feats[k] != v {
				t.Fatalf("%s: feature %q = %v, want %v", tc.line, k, feats[k], v)
			}
		}
	}
	if _, err := reqscan.Scan([]byte(`{"features":{"mobile.rtt":-0}}`), keys, vals); err != nil || !math.Signbit(vals[0]) {
		t.Fatalf("-0 lost its sign: %v %v", vals, err)
	}
	if _, err := reqscan.Scan([]byte(`{"features":{"other":1e400}}`), keys, vals); err == nil {
		t.Fatal("1e400 on an unwanted key was accepted")
	}
	// The router's mode: no wanted keys, no slots.
	got, err := reqscan.Scan([]byte(`{"id":"s1","features":{"mobile.rtt":50}}`), nil, nil)
	if err != nil || got.ID != "s1" {
		t.Fatalf("id-only scan: %+v %v", got, err)
	}
}

// TestKeysSlots pins the slot layout callers index by: distinct names
// in order of first appearance.
func TestKeysSlots(t *testing.T) {
	keys := reqscan.NewKeys("b", "a", "b", "c", "a")
	if keys.Len() != 3 {
		t.Fatalf("Len %d, want 3 distinct names", keys.Len())
	}
	vals := make([]float64, keys.Len())
	if _, err := reqscan.Scan([]byte(`{"features":{"a":1,"b":2,"c":3}}`), keys, vals); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 2 || vals[1] != 1 || vals[2] != 3 {
		t.Fatalf("slots %v, want [2 1 3] (b, a, c)", vals)
	}
	var none *reqscan.Keys
	if none.Len() != 0 {
		t.Fatal("a nil set has slots")
	}
}

// TestScanFilterTwin scans an unwanted key whose filter bit is a wanted
// key's: the filter lets it through, and the exact lookup behind the
// filter must still keep it out of every slot.
func TestScanFilterTwin(t *testing.T) {
	keys := reqscan.NewKeys("mobile.rtt")
	twin := reqscan.FilterTwin("mobile.rtt")
	if twin == "mobile.rtt" || !keys.Passes(twin) {
		t.Fatalf("twin %q of mobile.rtt does not share its filter bit", twin)
	}
	line := []byte(`{"features":{"` + twin + `":1,"mobile.rtt":2}}`)
	vals := make([]float64, 1)
	got, err := reqscan.Scan(line, keys, vals)
	if err != nil || vals[0] != 2 {
		t.Fatalf("%s: got %+v %v %v, want mobile.rtt = 2", line, got, vals, err)
	}
	line = []byte(`{"features":{"` + twin + `":1}}`)
	if _, err := reqscan.Scan(line, keys, vals); err != nil || !math.IsNaN(vals[0]) {
		t.Fatalf("%s: mobile.rtt slot %v %v, want absent", line, vals, err)
	}
	checkParity(t, line)
}

// TestScanAllocs pins the point of the scanner: a row's unwanted keys
// cost no allocation, and its wanted values land in the caller's slots,
// so the id is a scan's one allocation.
func TestScanAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"id":"session-1","features":{`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"vp.feature_` + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + `":` + "12.5")
	}
	b.WriteString(`,"mobile.rtt":50}}`)
	line := []byte(b.String())
	keys := reqscan.NewKeys("mobile.rtt", "vp.feature_a", "vp.feature_xb")
	vals := make([]float64, keys.Len())
	if n := testing.AllocsPerRun(20, func() { reqscan.Scan(line, keys, vals) }); n > 1 {
		t.Fatalf("%v allocs per wide row, want at most 1 (id)", n)
	}
	if n := testing.AllocsPerRun(20, func() { reqscan.Scan(line, nil, nil) }); n > 1 {
		t.Fatalf("%v allocs per id-only scan, want at most 1 (id)", n)
	}
}

// FuzzScanLine checks the scanner against encoding/json on arbitrary
// lines: they must accept and reject the same lines, read the same id
// and explain, and agree slot by slot, bit for bit, on every wanted
// feature, an absent one read as NaN; no slot may hold ±Inf.
func FuzzScanLine(f *testing.F) {
	for _, l := range parityLines {
		f.Add([]byte(l))
	}
	for _, l := range boundaryLines() {
		f.Add([]byte(l))
	}
	f.Fuzz(checkParity)
}
