package c45

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
)

// roundTrip writes model to a buffer and reads it back, failing the
// test on either side.
func roundTrip(t *testing.T, model BatchPredictor, meta []byte) (BatchPredictor, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, model, meta); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if !IsSnapshot(buf.Bytes()) {
		t.Fatal("written snapshot does not sniff as one")
	}
	got, gotMeta, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	return got, gotMeta
}

// TestSnapshotTreeRoundTrip pins that a tree survives the binary
// round-trip with bit-identical node arrays, and therefore bit-identical
// predictions.
func TestSnapshotTreeRoundTrip(t *testing.T) {
	d := synthDataset(400, 8, 21, 0.2)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	got, meta := roundTrip(t, ct, []byte(`{"task":"t"}`))
	if string(meta) != `{"task":"t"}` {
		t.Fatalf("meta round-trip = %q", meta)
	}
	lt, ok := got.(*CompiledTree)
	if !ok {
		t.Fatalf("loaded model is %T, want *CompiledTree", got)
	}
	if !reflect.DeepEqual(lt.schema, ct.schema) || !reflect.DeepEqual(lt.classes, ct.classes) {
		t.Fatal("schema or classes changed across the round-trip")
	}
	if !reflect.DeepEqual(lt.nodes, ct.nodes) || !reflect.DeepEqual(lt.dists, ct.dists) {
		t.Fatal("node arrays changed across the round-trip")
	}

	m := fillMatrix(ct, d)
	want := batchLabels(ct, m)
	gotPred := batchLabels(lt, m)
	if !reflect.DeepEqual(want, gotPred) {
		t.Fatal("loaded tree predictions diverge from the original")
	}
}

// TestSnapshotForestRoundTrip covers the ensemble kind, including the
// per-tree class maps.
func TestSnapshotForestRoundTrip(t *testing.T) {
	d := synthDataset(300, 6, 5, 0.15)
	f := NewForest(ForestConfig{Trees: 7, Seed: 2, Tree: Config{NoPrune: true}}).TrainForest(d)
	cf, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	got, meta := roundTrip(t, cf, nil)
	if len(meta) != 0 {
		t.Fatalf("meta round-trip = %q, want empty", meta)
	}
	lf, ok := got.(*CompiledForest)
	if !ok {
		t.Fatalf("loaded model is %T, want *CompiledForest", got)
	}
	if lf.Trees() != cf.Trees() || lf.Nodes() != cf.Nodes() {
		t.Fatalf("loaded forest %d trees/%d nodes, want %d/%d", lf.Trees(), lf.Nodes(), cf.Trees(), cf.Nodes())
	}
	if !reflect.DeepEqual(lf.classMap, cf.classMap) {
		t.Fatal("class maps changed across the round-trip")
	}

	m := fillMatrix(cf, d)
	want := batchLabels(cf, m)
	gotPred := batchLabels(lf, m)
	if !reflect.DeepEqual(want, gotPred) {
		t.Fatal("loaded forest predictions diverge from the original")
	}
}

// TestSnapshotRejectsCorruption flips, truncates, and rewrites bytes and
// requires an error (never a panic, never silent acceptance) for every
// mutation that the CRC or validators must catch.
func TestSnapshotRejectsCorruption(t *testing.T) {
	d := synthDataset(200, 5, 9, 0.1)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ct, []byte("m")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		if _, _, err := ReadSnapshot(data); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
	}
	check("empty", nil)
	check("magic only", good[:8])
	for _, cut := range []int{1, len(good) / 2, len(good) - 1} {
		check("truncated", good[:cut])
	}
	for _, at := range []int{8, 12, 16, 24, len(good) / 2, len(good) - 1} {
		mut := append([]byte(nil), good...)
		mut[at] ^= 0x40
		check("bit flip", mut)
	}
	check("appended garbage", append(append([]byte(nil), good...), 1, 2, 3))

	// A wrong version must be rejected even with a valid CRC.
	mut := append([]byte(nil), good...)
	mut[8] = 99
	check("future version", mut)
}

// TestSnapshotWriteErrors covers the writer-side guards.
func TestSnapshotWriteErrors(t *testing.T) {
	if err := WriteSnapshot(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("expected an error snapshotting a nil model")
	}
	d := synthDataset(100, 4, 3, 0)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&bytes.Buffer{}, ct, make([]byte, snapMaxMeta+1)); err == nil {
		t.Fatal("expected an error for an oversized meta blob")
	}
}

// TestOpenSnapshotFile covers the file path, including missing files.
func TestOpenSnapshotFile(t *testing.T) {
	d := synthDataset(150, 4, 13, 0.1)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.vqsnap"
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ct, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	model, _, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	row := ct.NewRow()
	row[0] = 1.5
	if got, want := model.PredictRow(row), ct.PredictRow(row); got != want {
		t.Fatalf("loaded prediction %q, want %q", got, want)
	}
	if _, _, err := OpenSnapshot(path + ".missing"); err == nil {
		t.Fatal("expected an error opening a missing snapshot")
	}
}

// TestSnapshotPreorderValidation hand-corrupts a child pointer to point
// backwards; the loader must reject it (a backward edge would make the
// scalar traversal loop forever).
func TestSnapshotPreorderValidation(t *testing.T) {
	d := synthDataset(200, 5, 9, 0)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Nodes() < 3 {
		t.Skip("degenerate tree")
	}
	bad := &CompiledTree{
		schema:  ct.schema,
		classes: ct.classes,
		nodes:   ct.nodes,
		dists:   ct.dists,
		sindex:  ct.sindex,
	}
	bad.nodes.left = append([]int32(nil), ct.nodes.left...)
	// Find an internal node and aim its left child at the root.
	for i := 0; i < bad.nodes.len(); i++ {
		if bad.nodes.feature[i] >= 0 {
			bad.nodes.left[i] = 0
			break
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, bad, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(buf.Bytes()); err == nil {
		t.Fatal("backward child pointer accepted")
	}
}

// TestSnapshotNaNDistSurvives pins exact float bit preservation through
// the format, including non-finite values.
func TestSnapshotNaNDistSurvives(t *testing.T) {
	d := synthDataset(100, 4, 3, 0)
	ct, err := Compile(New(Config{}).TrainTree(d))
	if err != nil {
		t.Fatal(err)
	}
	probe := &CompiledTree{
		schema:  ct.schema,
		classes: ct.classes,
		nodes:   ct.nodes,
		dists:   ct.dists,
		sindex:  ct.sindex,
	}
	probe.nodes.threshold = append([]float64(nil), ct.nodes.threshold...)
	probe.nodes.threshold[0] = math.Copysign(0, -1) // -0.0 must round-trip
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, probe, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b := math.Float64bits(got.(*CompiledTree).nodes.threshold[0])
	if b != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("threshold bits %#x, want negative zero", b)
	}
}
