package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vqprobe"
)

// writeFixture trains a small model and writes it, plus a labelled CSV
// in vqlab's format, to dir. The CSV lacks one model column and carries
// a literal NaN in another, so every run exercises the missing-feature
// warning and the engine's non-finite rejection.
func writeFixture(t *testing.T, dir string) (modelPath, csvPath string) {
	t.Helper()
	train := vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 150, Seed: 3})
	model, err := vqprobe.Train(train, vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	live := vqprobe.SimulateRealWorld(vqprobe.SimulationConfig{Sessions: 60, Seed: 5})
	d, err := vqprobe.Dataset(live, vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := d.WriteCSV(&raw); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&raw).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	schema := model.FeatureSchema()
	if len(schema) < 2 {
		t.Fatalf("model reads %d features, the fixture needs 2", len(schema))
	}
	drop, nan := slices.Index(recs[0], schema[0]), slices.Index(recs[0], schema[1])
	if drop < 0 || nan < 0 {
		t.Fatalf("model features %q/%q not in the CSV header", schema[0], schema[1])
	}
	recs[3][nan] = "NaN"
	for i, rec := range recs {
		recs[i] = slices.Delete(rec, drop, drop+1)
	}
	csvPath = filepath.Join(dir, "live.csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	w := csv.NewWriter(cf)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	return modelPath, csvPath
}

// TestParallelOutputIdentical: vqdiag prints the same bytes for any
// -parallel, with and without -explain.
func TestParallelOutputIdentical(t *testing.T) {
	modelPath, csvPath := writeFixture(t, t.TempDir())
	for _, explain := range []bool{false, true} {
		var outs [2]bytes.Buffer
		for i, parallel := range []int{1, 3} {
			o := options{model: modelPath, in: csvPath, parallel: parallel, explain: explain}
			if err := diagnose(o, &outs[i]); err != nil {
				t.Fatalf("explain=%v parallel=%d: %v", explain, parallel, err)
			}
		}
		got := outs[0].String()
		if got != outs[1].String() {
			t.Fatalf("explain=%v: -parallel 1 and -parallel 3 print different output\n-parallel 1:\n%s\n-parallel 3:\n%s",
				explain, got, outs[1].String())
		}
		if !strings.Contains(got, "session    2: error=feature ") || !strings.Contains(got, "non-finite value") {
			t.Fatalf("explain=%v: the NaN row was not rejected:\n%s", explain, got)
		}
		if !strings.Contains(got, "accuracy: ") {
			t.Fatalf("explain=%v: no accuracy line:\n%s", explain, got)
		}
		if hasRule := strings.Contains(got, "root cause = "); hasRule != explain {
			t.Fatalf("explain=%v: rule lines present = %v:\n%s", explain, hasRule, got)
		}
	}
}
