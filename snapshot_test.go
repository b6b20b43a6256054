package vqprobe_test

import (
	"os"
	"path/filepath"
	"testing"

	"vqprobe"
)

// TestSnapshotRoundTripMatchesJSONModel pins the binary snapshot path
// end to end at the facade: a model written with SaveSnapshot and
// loaded back through LoadServingModel must classify every session
// exactly like the compiled JSON model, and must carry provenance
// (content hash, load time) that the JSON path also records.
func TestSnapshotRoundTripMatchesJSONModel(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "model.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(jf); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	snapPath := filepath.Join(dir, "model.snap")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SaveSnapshot(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	fromJSON, err := vqprobe.LoadServingModel(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := vqprobe.LoadServingModel(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	ji, si := fromJSON.Info(), fromSnap.Info()
	if ji.Nodes <= 0 || ji.Nodes != si.Nodes {
		t.Fatalf("node counts differ: json %d, snapshot %d", ji.Nodes, si.Nodes)
	}
	if ji.SnapshotHash == "" || si.SnapshotHash == "" || ji.SnapshotHash == si.SnapshotHash {
		t.Fatalf("provenance hashes wrong: json %q, snapshot %q", ji.SnapshotHash, si.SnapshotHash)
	}
	if fromSnap.Task() != string(model.Task) {
		t.Fatalf("snapshot lost the task: %q", fromSnap.Task())
	}

	for i, s := range facadeSessions() {
		if i >= 60 {
			break
		}
		fv := map[string]float64{}
		for vp, rec := range s.Records {
			for k, v := range rec {
				fv[vp+"."+k] = v
			}
		}
		got := fromSnap.Diagnose(fv)
		want := fromJSON.Diagnose(fv)
		if got.Class != want.Class || got.Severity != want.Severity || got.Cause != want.Cause {
			t.Fatalf("session %d: snapshot model %+v, json model %+v", i, got, want)
		}
	}
}

// TestLoadServingModelRejectsCorruptSnapshot pins the failure mode: a
// damaged snapshot file must error out, never serve a wrong model.
func TestLoadServingModelRejectsCorruptSnapshot(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.DetectSeverity, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SaveSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vqprobe.LoadServingModel(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}
