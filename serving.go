package vqprobe

// Serving API: the online counterpart of Train/Diagnose. A trained
// Model compiles into an immutable CompiledModel (flat-array tree
// evaluation, no map lookups on the hot path), and an Engine serves
// compiled snapshots, each request body classified on its caller's
// goroutine under a row-count admission limit, with hot reload and
// built-in observability. cmd/vqserve is a thin daemon over this
// surface; docs/SERVING.md describes the architecture.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"vqprobe/internal/features"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
)

// CompiledModel is the serving-optimized form of a trained Model: the
// feature-construction scales plus the tree flattened for sequential
// evaluation. Snapshots are immutable and safe for concurrent use.
type CompiledModel = serve.Model

// Engine is the online diagnosis engine: batch classification on the
// caller's goroutine (plus helpers for large bodies), row-count
// admission with a backpressure policy, atomic model hot-reload, and an
// HTTP surface (/diagnose, /healthz, /metrics) via Engine.Handler.
type Engine = serve.Engine

// EngineConfig tunes an Engine; the zero value selects NumCPU shards,
// admission for 256 rows per shard, 32-row chunks and blocking
// backpressure.
type EngineConfig = serve.Config

// ServeRequest is one session sent to an Engine.
type ServeRequest = serve.Request

// ServeResult is an Engine's answer for one request.
type ServeResult = serve.Result

// Explanation is the recorded decision path behind one prediction:
// every split consulted (with thresholds, observed values and
// fractional weights for missing features) and the leaves that
// contributed. Produced by CompiledModel.DiagnoseExplain or a
// ServeRequest with Explain set; Rule() renders it as one
// human-readable sentence.
type Explanation = c45.Explanation

// ExplainStep is one consulted split in an Explanation's path.
type ExplainStep = c45.PathStep

// CompileModel flattens a trained model into its serving form.
func CompileModel(m *Model) (*CompiledModel, error) {
	ct, err := c45.Compile(m.pipeline.Tree)
	if err != nil {
		return nil, fmt.Errorf("vqprobe: compiling model: %w", err)
	}
	return serve.NewModel(string(m.Task), m.pipeline.Norm, ct), nil
}

// Compile is the method form of CompileModel.
func (m *Model) Compile() (*CompiledModel, error) { return CompileModel(m) }

// FeatureSchema returns the exact feature names the trained tree
// consults, in canonical order — the contract an input CSV header or
// /diagnose feature map is validated against.
func (m *Model) FeatureSchema() []string { return m.pipeline.Tree.Features() }

// snapshotMeta is the caller blob vqprobe writes into c45 binary
// snapshots: everything beyond the compiled predictor needed to
// reconstruct a serving model (the task, vantage points, and the
// feature-construction scales).
type snapshotMeta struct {
	Task   Task               `json:"task"`
	VPs    []string           `json:"vps,omitempty"`
	Scales map[string]float64 `json:"scales,omitempty"`
}

// SaveSnapshot writes the model's compiled serving form as a binary
// c45 snapshot (see internal/ml/c45/snapshot.go for the format).
// Unlike the JSON form, loading a snapshot is a single sequential read
// plus a bounds-checked decode — no parsing, no re-compilation — so
// vqserve's reload cost stays flat as models grow.
func (m *Model) SaveSnapshot(w io.Writer) error {
	ct, err := c45.Compile(m.pipeline.Tree)
	if err != nil {
		return fmt.Errorf("vqprobe: compiling model for snapshot: %w", err)
	}
	meta, err := json.Marshal(snapshotMeta{Task: m.Task, VPs: m.VPs, Scales: m.pipeline.Norm.Scales()})
	if err != nil {
		return fmt.Errorf("vqprobe: encoding snapshot meta: %w", err)
	}
	return c45.WriteSnapshot(w, ct, meta)
}

// LoadServingModel loads a serving model from disk, accepting both
// model formats by sniffing the file: vqtrain's JSON (parsed and
// re-compiled) and the binary c45 snapshot written by SaveSnapshot or
// vqtrain -emit-snapshot (single-read decode of the compiled tree).
// Provenance — the file's content hash and the measured load
// time — is recorded on the returned model and surfaces on /healthz
// and the vqserve_model_* gauges.
func LoadServingModel(path string) (*CompiledModel, error) {
	//lint:ignore virtclock snapshot load time is real-world provenance, recorded for /healthz
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cm *CompiledModel
	if c45.IsSnapshot(data) {
		ct, metaRaw, err := c45.ReadSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var meta snapshotMeta
		if len(metaRaw) > 0 {
			if err := json.Unmarshal(metaRaw, &meta); err != nil {
				return nil, fmt.Errorf("vqprobe: %s: decoding snapshot meta: %w", path, err)
			}
		}
		cm = serve.NewModel(string(meta.Task), features.NormalizerFromScales(meta.Scales), ct)
	} else {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if cm, err = CompileModel(m); err != nil {
			return nil, err
		}
	}
	sum := sha256.Sum256(data)
	//lint:ignore virtclock snapshot load time is real-world provenance, recorded for /healthz
	cm.SetProvenance(fmt.Sprintf("%x", sum[:6]), time.Since(start))
	return cm, nil
}

// ModelInfo describes a loaded serving model: its compiled tree's node
// count and, when loaded from disk, the file's content hash and load
// time.
type ModelInfo = serve.ModelInfo

// NewEngine starts an engine serving the given compiled snapshot.
// Close it to drain.
func NewEngine(m *CompiledModel, cfg EngineConfig) *Engine {
	return serve.NewEngine(m, cfg)
}

// ValidateFeatures rejects feature vectors carrying NaN or ±Inf values
// — NaN is the pipeline's missing-value sentinel, so letting one in
// would silently classify the record down every split's missing-value
// path. The Engine applies this check to every request; callers using
// CompiledModel.Diagnose directly should apply it themselves.
func ValidateFeatures(fv map[string]float64) error {
	return serve.ValidateFeatures(fv)
}
