// Package vqprobe is the public API of the vqprobe library: a
// multi-vantage-point root cause analysis framework for mobile video
// streaming QoE, reproducing Dimopoulos et al., "Identifying the Root
// Cause of Video Streaming Issues on Mobile Devices" (CoNEXT 2015).
//
// The library covers the paper's whole system:
//
//   - a discrete-event testbed (network simulator, TCP, wireless channel,
//     device hardware, video server and player) standing in for the
//     paper's physical lab;
//   - vantage-point probes (mobile device, router/AP, content server)
//     that passively collect tstat-style transport metrics plus
//     OS/hardware and link-layer samples per video session;
//   - MOS-based QoE labeling, feature construction/selection, and a C4.5
//     classifier that detects a problem's existence, location and exact
//     root cause.
//
// Typical use:
//
//	sessions := vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 1000, Seed: 1})
//	model, _ := vqprobe.Train(sessions, vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints)
//	diag := model.Diagnose(sessions[0].Records)
//	fmt.Println(diag.Class, diag.Location, diag.Severity)
//
// The cmd/ tools (vqlab, vqtrain, vqdiag, vqreport) and the runnable
// examples under examples/ are thin layers over this package.
package vqprobe

import (
	"encoding/json"
	"fmt"
	"io"

	"vqprobe/internal/experiments"
	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
	"vqprobe/internal/testbed"
)

// Task selects what the model should answer, mirroring the paper's
// three questions (Sections 5.1-5.3) plus the binary task used in the
// wild.
type Task string

// The diagnosis tasks.
const (
	DetectSeverity    Task = "severity" // good / mild / severe
	LocateProblem     Task = "location" // good / {mobile,lan,wan} x severity
	IdentifyRootCause Task = "exact"    // good / {7 faults} x severity
	DetectProblem     Task = "binary"   // good / problematic
)

// Vantage point names, as they appear in session records and feature
// prefixes.
const (
	VPMobile = "mobile"
	VPRouter = "router"
	VPServer = "server"
)

// AllVantagePoints is the full probe deployment.
var AllVantagePoints = []string{VPMobile, VPRouter, VPServer}

// Session is one video playback observation: per-vantage-point feature
// records plus the ground-truth label derived from the player's MOS.
type Session = testbed.SessionResult

// SimulationConfig sizes a dataset generation run.
type SimulationConfig struct {
	Sessions int   // number of video sessions (default 400)
	Seed     int64 // RNG seed; same seed, same dataset
	Workers  int   // parallel session simulations (default GOMAXPROCS)
}

func (c SimulationConfig) gen() testbed.GenConfig {
	return testbed.GenConfig{Sessions: c.Sessions, Seed: c.Seed, Workers: c.Workers}
}

// SimulateControlled generates a controlled-testbed dataset (the paper's
// Section 4 lab: induced faults over emulated DSL/cellular broadband).
func SimulateControlled(cfg SimulationConfig) []Session {
	return testbed.GenerateControlled(cfg.gen())
}

// SimulateRealWorld generates the Section 6.1 evaluation setting:
// corporate WiFi, induced fault windows, YouTube-vs-private server mix.
func SimulateRealWorld(cfg SimulationConfig) []Session {
	return testbed.GenerateRealWorldInduced(cfg.gen())
}

// SimulateWild generates the Section 6.2 in-the-wild setting: roaming
// users on arbitrary 3G/WiFi networks with naturally occurring faults.
func SimulateWild(cfg SimulationConfig) []Session {
	return testbed.GenerateWild(cfg.gen())
}

// labeler maps a task to its labeling function.
func labeler(task Task) (testbed.Labeler, error) {
	switch task {
	case DetectSeverity:
		return testbed.SeverityLabel, nil
	case LocateProblem:
		return testbed.LocationLabel, nil
	case IdentifyRootCause:
		return testbed.ExactLabel, nil
	case DetectProblem:
		return testbed.BinaryLabel, nil
	default:
		return nil, fmt.Errorf("vqprobe: unknown task %q", task)
	}
}

// Dataset converts sessions into a labeled ML dataset using the given
// vantage points; exposed for custom experimentation and CSV export.
func Dataset(sessions []Session, task Task, vps []string) (*ml.Dataset, error) {
	lb, err := labeler(task)
	if err != nil {
		return nil, err
	}
	return testbed.ToDataset(sessions, vps, lb), nil
}

// Diagnosis is the model's answer for one session.
type Diagnosis struct {
	// Class is the raw predicted class for the model's task (e.g.
	// "lan_cong_severe", "wan_mild", "problematic").
	Class string
	// Severity is the severity component of the class ("good", "mild",
	// "severe"), when the task encodes one.
	Severity string
	// Cause is the fault/location component without severity ("good",
	// "lan_cong", "wan", ...).
	Cause string
}

// Model is a trained diagnosis pipeline: feature construction scales,
// the FCBF-selected feature list, and a C4.5 tree.
type Model struct {
	Task     Task
	VPs      []string
	pipeline *experiments.Pipeline
}

// Train fits the paper's full pipeline (feature construction, FCBF
// selection, C4.5) on the given sessions.
func Train(sessions []Session, task Task, vps []string) (*Model, error) {
	d, err := Dataset(sessions, task, vps)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("vqprobe: no labeled instances to train on")
	}
	return &Model{Task: task, VPs: vps, pipeline: experiments.TrainPipeline(d)}, nil
}

// SelectedFeatures returns the features surviving selection, in rank
// order (the model's Table 1).
func (m *Model) SelectedFeatures() []string { return m.pipeline.Selected }

// TreeText renders the decision tree in J48's indented text form; the
// paper stresses that the model is interpretable, not a black box.
func (m *Model) TreeText() string { return m.pipeline.Tree.String() }

// Diagnose classifies one session's records, keyed by vantage point
// name. Vantage points missing from the map are treated as missing
// values, as in the paper's reduced-deployment scenarios.
func (m *Model) Diagnose(records map[string]map[string]float64) Diagnosis {
	fv := metrics.Vector{}
	for _, vp := range m.VPs {
		if rec, ok := records[vp]; ok {
			fv.Merge(vp, metrics.Vector(rec))
		}
	}
	cls := m.pipeline.PredictVector(fv)
	sev, cause := serve.ParseClass(cls)
	return Diagnosis{Class: cls, Severity: sev, Cause: cause}
}

// DiagnoseSession is a convenience wrapper over Diagnose.
func (m *Model) DiagnoseSession(s Session) Diagnosis {
	records := make(map[string]map[string]float64, len(s.Records))
	for vp, rec := range s.Records {
		records[vp] = rec
	}
	return m.Diagnose(records)
}

// Evaluate scores the model against labeled sessions and returns the
// confusion matrix.
func (m *Model) Evaluate(sessions []Session) (*ml.Confusion, error) {
	d, err := Dataset(sessions, m.Task, m.VPs)
	if err != nil {
		return nil, err
	}
	return m.pipeline.Evaluate(d), nil
}

// modelJSON is the serialized model format.
type modelJSON struct {
	Task     Task               `json:"task"`
	VPs      []string           `json:"vps"`
	Scales   map[string]float64 `json:"scales"`
	Selected []string           `json:"selected"`
	Tree     *c45.Tree          `json:"tree"`
}

// Save serializes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(modelJSON{
		Task:     m.Task,
		VPs:      m.VPs,
		Scales:   m.pipeline.Norm.Scales(),
		Selected: m.pipeline.Selected,
		Tree:     m.pipeline.Tree,
	})
}

// LoadModel restores a model saved with Save.
func LoadModel(r io.Reader) (*Model, error) {
	var j modelJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("vqprobe: decoding model: %w", err)
	}
	if j.Tree == nil {
		return nil, fmt.Errorf("vqprobe: model has no tree")
	}
	return &Model{
		Task: j.Task,
		VPs:  j.VPs,
		pipeline: &experiments.Pipeline{
			Norm:     features.NormalizerFromScales(j.Scales),
			Selected: j.Selected,
			Tree:     j.Tree,
		},
	}, nil
}

// TrainFromCSV fits the pipeline on a dataset previously exported with
// WriteCSV (cmd/vqlab). The task and vantage points are recorded in the
// model for bookkeeping; the CSV's class column defines the labels.
func TrainFromCSV(r io.Reader, task Task, vps []string) (*Model, error) {
	return TrainFromCSVWorkers(r, task, vps, 0)
}

// TrainFromCSVWorkers is TrainFromCSV with an explicit bound on
// training parallelism (zero selects GOMAXPROCS, 1 forces a serial
// fit). The fitted model is byte-identical for any worker count.
func TrainFromCSVWorkers(r io.Reader, task Task, vps []string, workers int) (*Model, error) {
	d, err := ml.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("vqprobe: empty training dataset")
	}
	return &Model{Task: task, VPs: vps, pipeline: experiments.TrainPipelineWorkers(d, workers)}, nil
}

// EvaluateCSV scores the model against a labeled CSV dataset.
func (m *Model) EvaluateCSV(r io.Reader) (*ml.Confusion, error) {
	d, err := ml.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return m.pipeline.Evaluate(d), nil
}

// PredictVector classifies one raw feature vector (keys as produced by
// Dataset / the CSV header).
func (m *Model) PredictVector(fv map[string]float64) string {
	return m.pipeline.PredictVector(metrics.Vector(fv))
}

// FeatureRanking returns, for each class the model predicts, the
// features most responsible for reaching leaves of that class — the
// per-problem ranking of the paper's Table 4. Scores are path-coverage
// weights; higher means more influential.
func (m *Model) FeatureRanking() map[string][]FeatureScore {
	out := map[string][]FeatureScore{}
	for cls, scores := range m.pipeline.Tree.PerClassImportance() {
		conv := make([]FeatureScore, len(scores))
		for i, s := range scores {
			conv[i] = FeatureScore{Feature: s.Feature, Score: s.Score}
		}
		out[cls] = conv
	}
	return out
}

// FeatureScore pairs a feature name with an importance weight.
type FeatureScore struct {
	Feature string
	Score   float64
}
