package vqprobe_test

import (
	"bytes"
	"sync"
	"testing"

	"vqprobe"
)

// facade tests share one small simulated corpus, simulated on first
// use so that a test or fuzz target that does not read it starts fast.
var facadeSessions = sync.OnceValue(func() []vqprobe.Session {
	return vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 160, Seed: 3})
})

func TestTrainAndDiagnose(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.DetectSeverity, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.SelectedFeatures()) == 0 {
		t.Fatal("no features selected")
	}
	conf, err := model.Evaluate(facadeSessions())
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() < 0.8 {
		t.Errorf("training-set accuracy %.2f suspiciously low", conf.Accuracy())
	}
	d := model.DiagnoseSession(facadeSessions()[0])
	if d.Class == "" || d.Severity == "" {
		t.Errorf("empty diagnosis: %+v", d)
	}
}

func TestDiagnoseWithPartialRecords(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	// Only the mobile record available: must still produce a class.
	s := facadeSessions()[1]
	d := model.Diagnose(map[string]map[string]float64{
		vqprobe.VPMobile: s.Records[vqprobe.VPMobile],
	})
	if d.Class == "" {
		t.Error("diagnosis with a single VP returned nothing")
	}
	// No records at all: still answers (majority behaviour).
	if d := model.Diagnose(nil); d.Class == "" {
		t.Error("diagnosis with no records returned nothing")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := vqprobe.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Task != model.Task {
		t.Errorf("task lost: %v", back.Task)
	}
	for i, s := range facadeSessions() {
		if i >= 40 {
			break
		}
		if got, want := back.DiagnoseSession(s), model.DiagnoseSession(s); got != want {
			t.Fatalf("loaded model disagrees on session %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := vqprobe.LoadModel(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := vqprobe.LoadModel(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty model accepted")
	}
}

func TestDatasetExportTasks(t *testing.T) {
	for _, task := range []vqprobe.Task{
		vqprobe.DetectSeverity, vqprobe.LocateProblem,
		vqprobe.IdentifyRootCause, vqprobe.DetectProblem,
	} {
		d, err := vqprobe.Dataset(facadeSessions(), task, []string{vqprobe.VPMobile})
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if d.Len() == 0 {
			t.Errorf("%s produced an empty dataset", task)
		}
	}
	if _, err := vqprobe.Dataset(facadeSessions(), "bogus", nil); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestTrainFromCSVRoundTrip(t *testing.T) {
	d, err := vqprobe.Dataset(facadeSessions(), vqprobe.DetectSeverity, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	model, err := vqprobe.TrainFromCSV(&buf, vqprobe.DetectSeverity, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := d.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	conf, err := model.EvaluateCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() < 0.8 {
		t.Errorf("CSV round-trip accuracy %.2f", conf.Accuracy())
	}
}

func TestTreeTextRenders(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.DetectSeverity, []string{vqprobe.VPMobile})
	if err != nil {
		t.Fatal(err)
	}
	if txt := model.TreeText(); len(txt) < 10 {
		t.Errorf("tree rendering too small: %q", txt)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	a := vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 10, Seed: 77})
	b := vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 10, Seed: 77})
	for i := range a {
		if a[i].MOS != b[i].MOS || a[i].Label != b[i].Label {
			t.Fatalf("simulation not deterministic at session %d", i)
		}
	}
}

func TestFeatureRanking(t *testing.T) {
	model, err := vqprobe.Train(facadeSessions(), vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
	if err != nil {
		t.Fatal(err)
	}
	ranking := model.FeatureRanking()
	if len(ranking) == 0 {
		t.Fatal("empty ranking")
	}
	for cls, scores := range ranking {
		prev := 1e18
		for _, s := range scores {
			if s.Score > prev {
				t.Errorf("class %s ranking not sorted", cls)
			}
			prev = s.Score
		}
	}
}
