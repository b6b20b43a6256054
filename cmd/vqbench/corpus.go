package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"vqprobe"
	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
)

// corpus is the request corpus of one workload: every held-out session
// as a pre-encoded "features" object, plus the oracle's answers for it
// from the same snapshot the daemons serve.
type corpus struct {
	model *serve.Model
	norm  *features.Normalizer
	fvs   []metrics.Vector // the rows as sent (wide or narrow)
	json  [][]byte         // fvs[i] encoded as a JSON object
	class []string         // oracle Model.Diagnose class per session
	rule  []string         // oracle Model.DiagnoseExplain rule per session
}

// loadCorpus reads the request sessions and answers each with the
// in-process model. Wide rows keep every numeric feature the vantage
// points emit; narrow rows keep only what Model reads: the schema
// features and their Normalizer.Plan divisors. A session whose narrow
// and wide rows get different answers is an error, since the two must
// be interchangeable.
func loadCorpus(snapPath, csvPath string, narrow bool) (*corpus, error) {
	model, err := vqprobe.LoadServingModel(snapPath)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		return nil, err
	}
	_, metaRaw, err := c45.ReadSnapshot(data)
	if err != nil {
		return nil, err
	}
	var meta struct {
		Scales map[string]float64 `json:"scales"`
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("snapshot meta: %w", err)
	}
	c := &corpus{model: model, norm: features.NormalizerFromScales(meta.Scales)}
	keys := narrowKeys(model.Schema(), c.norm)

	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := ml.NewCSVStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", csvPath, err)
	}
	for {
		wide, _, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", csvPath, err)
		}
		nar := metrics.Vector{}
		for _, k := range keys {
			if v, ok := wide[k]; ok {
				nar[k] = v
			}
		}
		dw, dn := model.Diagnose(wide), model.Diagnose(nar)
		ew, en := model.DiagnoseExplain(wide), model.DiagnoseExplain(nar)
		if dw.Class != dn.Class || ew.Rule != en.Rule || ew.Class != dw.Class {
			return nil, fmt.Errorf("session %d: wide and narrow rows disagree (%s vs %s)", len(c.fvs), dw.Class, dn.Class)
		}
		fv := wide
		if narrow {
			fv = nar
		}
		b, err := json.Marshal(fv)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", len(c.fvs), err)
		}
		c.fvs = append(c.fvs, fv)
		c.json = append(c.json, b)
		c.class = append(c.class, dw.Class)
		c.rule = append(c.rule, ew.Rule)
	}
	if len(c.fvs) == 0 {
		return nil, fmt.Errorf("%s: no request sessions", csvPath)
	}
	return c, nil
}

// narrowKeys returns, sorted, the raw features Model.Diagnose reads:
// the schema features plus their per-instance divisors.
func narrowKeys(schema []string, norm *features.Normalizer) []string {
	set := map[string]bool{}
	for _, f := range schema {
		set[f] = true
		if d := norm.Plan(f).Divisor; d != "" {
			set[d] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// row is one request row: a corpus session, optionally explained.
type row struct {
	sess    int
	explain bool
}

// requestGen deterministically produces the workload's k-th request
// from the seed, so the load run and the in-process replay send the
// same bodies without storing them.
type requestGen struct {
	c       *corpus
	seed    uint64
	rows    int // rows per request
	explain bool
}

// splitmix64 is the SplitMix64 finalizer: a stateless, well-mixed hash
// that turns (seed, request, row) into an independent draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// request returns request k's rows: sessions drawn uniformly from the
// corpus, and on explain workloads one row in explainEvery asks for
// the decision path.
func (g *requestGen) request(k int64, dst []row) []row {
	dst = dst[:0]
	h := splitmix64(g.seed ^ splitmix64(uint64(k)))
	for i := 0; i < g.rows; i++ {
		r := splitmix64(h + uint64(i))
		dst = append(dst, row{sess: int(r % uint64(len(g.c.fvs))), explain: g.explain && (r>>40)%explainEvery == 0})
	}
	return dst
}

// appendID renders the ID of row i of request k: its session and
// position, so every row of a run has a distinct ID.
func appendID(dst []byte, k int64, i int, r row) []byte {
	dst = append(dst, 's')
	dst = strconv.AppendInt(dst, int64(r.sess), 10)
	dst = append(dst, '.')
	dst = strconv.AppendInt(dst, k, 10)
	dst = append(dst, '.')
	return strconv.AppendInt(dst, int64(i), 10)
}

// body renders request k as the NDJSON /diagnose body.
func (g *requestGen) body(dst []byte, k int64, rows []row) []byte {
	for i, r := range rows {
		dst = append(dst, `{"id":"`...)
		dst = appendID(dst, k, i, r)
		dst = append(dst, `","features":`...)
		dst = append(dst, g.c.json[r.sess]...)
		if r.explain {
			dst = append(dst, `,"explain":true`...)
		}
		dst = append(dst, "}\n"...)
	}
	return dst
}

// answer is the part of a /diagnose result line the oracle checks.
type answer struct {
	ID    string `json:"id"`
	Class string `json:"class"`
	Rule  string `json:"rule"`
	Err   string `json:"error"`
}

// check compares a /diagnose response with the oracle. Error rows,
// router-shed rows, missing rows and wrong answers all count as failed;
// wrong answers count as mismatched too.
func (g *requestGen) check(k int64, rows []row, status int, resp []byte) (failed, mismatched int) {
	if status != 200 {
		return len(rows), 0
	}
	var id []byte
	i := 0
	for len(resp) > 0 && i < len(rows) {
		line := resp
		if j := bytes.IndexByte(resp, '\n'); j >= 0 {
			line, resp = resp[:j], resp[j+1:]
		} else {
			resp = nil
		}
		if len(line) == 0 {
			continue
		}
		var a answer
		r := rows[i]
		id = appendID(id[:0], k, i, r)
		i++
		switch {
		case json.Unmarshal(line, &a) != nil || a.Err != "":
			failed++
		case a.ID != string(id) || a.Class != g.c.class[r.sess] || (r.explain && a.Rule != g.c.rule[r.sess]):
			failed++
			mismatched++
		}
	}
	return failed + len(rows) - i, mismatched
}
