package c45

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
)

// Versioned binary snapshot format for compiled trees.
//
// The JSON model file (vqtrain's output) re-parses and re-compiles the
// whole tree on every load, so vqserve's reload cost grows with model
// size. A snapshot instead stores the struct-of-arrays node layout
// verbatim: loading is one sequential read plus a bounds-checked
// little-endian decode straight back into nodeArrays — no parsing, no
// recursion, no unsafe.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "VQC45SNP"
//	8       4     version (currently 1)
//	12      4     endianness marker 0x0A0B0C0D — reads back wrong on a
//	              big-endian writer/reader mismatch
//	16      1     kind: 1 = CompiledTree. Kind 2 was a bagged forest;
//	              forests are not served, so the reader refuses it
//	17      3     reserved (zero)
//	20      4     meta length, then meta bytes (opaque caller blob,
//	              e.g. vqprobe's task/normalization JSON)
//	...     8     payload length
//	...     8     CRC-64/ECMA of every other byte in the file: the
//	              header bytes before this field (magic through meta)
//	              concatenated with the payload, so a flip anywhere —
//	              including the meta blob — fails the checksum
//	...     —     payload
//
// Payload: schema strings, class strings, the tree count (always 1),
// the tree's class table (indices into the class strings, always the
// identity), the six int32 node arrays, the three float64 node arrays,
// and the leaf distribution pool. Strings are uint32-length-prefixed
// UTF-8. The tree count and class table are what kind 2 needed; tree
// snapshots keep them so files written before forests were dropped
// still load, byte for byte.
//
// Compatibility rule: the version bumps on any layout change; readers
// reject versions they don't know. The CRC covers the whole file
// (header, meta and payload), so a truncated or bit-flipped file fails
// before any array is trusted; after that, every index is still
// bounds-checked (child pointers must point strictly forward — the
// preorder invariant — so a traversal of a decoded tree always
// terminates).

const (
	snapMagic   = "VQC45SNP"
	snapVersion = 1
	snapEndian  = 0x0A0B0C0D

	snapKindTree   = 1
	snapKindForest = 2

	// snapMaxMeta bounds the opaque meta blob so a corrupt length field
	// can't drive a huge allocation before the CRC is checked.
	snapMaxMeta = 1 << 20
)

var snapCRC = crc64.MakeTable(crc64.ECMA)

// IsSnapshot reports whether data begins with the snapshot magic —
// the sniff loaders use to pick between snapshot and JSON model files.
func IsSnapshot(data []byte) bool {
	return len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) == snapMagic
}

// ---- encoding ----

type senc struct {
	b []byte
}

func (e *senc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *senc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *senc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *senc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *senc) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *senc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u32(uint32(v))
	}
}

func (e *senc) f64s(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *senc) tree(ct *CompiledTree) {
	classIdx := make([]int32, len(ct.classes))
	for i := range classIdx {
		classIdx[i] = int32(i)
	}
	e.i32s(classIdx)
	nd := &ct.nodes
	e.i32s(nd.feature)
	e.i32s(nd.left)
	e.i32s(nd.right)
	e.i32s(nd.class)
	e.i32s(nd.distOff)
	e.i32s(nd.distLen)
	e.f64s(nd.threshold)
	e.f64s(nd.leftFrac)
	e.f64s(nd.total)
	e.f64s(ct.dists)
}

// WriteSnapshot serializes a compiled tree plus an opaque caller meta
// blob. The written bytes round-trip through ReadSnapshot to a tree
// whose predictions are bit-identical to the original's.
//
//lint:deterministic snapshot bytes are content-addressed; identical models must write identical bytes
func WriteSnapshot(w io.Writer, ct *CompiledTree, meta []byte) error {
	if ct == nil {
		return fmt.Errorf("c45: cannot snapshot a nil tree")
	}
	if len(meta) > snapMaxMeta {
		return fmt.Errorf("c45: snapshot meta %d bytes exceeds the %d limit", len(meta), snapMaxMeta)
	}
	var payload senc
	payload.strs(ct.schema)
	payload.strs(ct.classes)
	payload.u32(1)
	payload.tree(ct)

	var hdr senc
	hdr.b = append(hdr.b, snapMagic...)
	hdr.u32(snapVersion)
	hdr.u32(snapEndian)
	hdr.b = append(hdr.b, snapKindTree, 0, 0, 0)
	hdr.u32(uint32(len(meta)))
	hdr.b = append(hdr.b, meta...)
	hdr.u64(uint64(len(payload.b)))
	// The CRC covers every byte it does not itself occupy: the header
	// written so far plus the payload. A flip anywhere in the file —
	// version, kind, meta, node arrays — fails the check.
	crc := crc64.Update(crc64.Checksum(hdr.b, snapCRC), snapCRC, payload.b)
	hdr.u64(crc)
	if _, err := w.Write(hdr.b); err != nil {
		return err
	}
	_, err := w.Write(payload.b)
	return err
}

// ---- decoding ----

// sdec is a bounds-checked sequential decoder: every read validates the
// remaining byte count first and latches the first error, so corrupt
// lengths surface as errors, never slice panics or huge allocations.
type sdec struct {
	b   []byte
	off int
	err error
}

func (d *sdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("c45: corrupt snapshot: "+format, args...)
	}
}

func (d *sdec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *sdec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *sdec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a length prefix for elements of elemSize bytes, checking
// it against the remaining payload so a corrupt count can't allocate
// more than the file could possibly hold.
func (d *sdec) count(elemSize int) int {
	n := d.u32()
	if d.err == nil && int64(n)*int64(elemSize) > int64(len(d.b)-d.off) {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *sdec) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func (d *sdec) strs() []string {
	n := d.count(4) // ≥4 bytes per entry (the length prefix)
	if d.err != nil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *sdec) i32s() []int32 {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.u32())
	}
	return vs
}

func (d *sdec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(d.u64())
	}
	return vs
}

// tree decodes and validates the compiled tree against the schema and
// class table decoded before it.
func (d *sdec) tree(schema []string, classes []string, sindex map[string]int32) *CompiledTree {
	classIdx := d.i32s()
	nd := nodeArrays{
		feature:   d.i32s(),
		left:      d.i32s(),
		right:     d.i32s(),
		class:     d.i32s(),
		distOff:   d.i32s(),
		distLen:   d.i32s(),
		threshold: d.f64s(),
		leftFrac:  d.f64s(),
		total:     d.f64s(),
	}
	dists := d.f64s()
	if d.err != nil {
		return nil
	}

	if len(classIdx) != len(classes) {
		d.fail("tree class map has %d entries for %d classes", len(classIdx), len(classes))
		return nil
	}
	for i, gi := range classIdx {
		if int(gi) != i {
			d.fail("tree class map is not the identity")
			return nil
		}
	}
	nn := len(nd.feature)
	if len(nd.left) != nn || len(nd.right) != nn || len(nd.class) != nn ||
		len(nd.distOff) != nn || len(nd.distLen) != nn ||
		len(nd.threshold) != nn || len(nd.leftFrac) != nn || len(nd.total) != nn {
		d.fail("node array lengths disagree")
		return nil
	}
	if nn == 0 {
		d.fail("tree has no nodes")
		return nil
	}
	nc := len(classIdx)
	for i := 0; i < nn; i++ {
		if f := nd.feature[i]; f < 0 { // leaf
			if c := nd.class[i]; c < 0 || int(c) >= nc {
				d.fail("node %d: class %d of %d", i, c, nc)
				return nil
			}
			off, ln := nd.distOff[i], nd.distLen[i]
			if off < 0 || ln < 0 || int(ln) > nc || int64(off)+int64(ln) > int64(len(dists)) {
				d.fail("node %d: dist window [%d,%d) of %d", i, off, off+ln, len(dists))
				return nil
			}
		} else { // internal: children must point strictly forward (preorder)
			if int(f) >= len(schema) {
				d.fail("node %d: feature %d of %d", i, f, len(schema))
				return nil
			}
			l, r := nd.left[i], nd.right[i]
			if l <= int32(i) || r <= int32(i) || int(l) >= nn || int(r) >= nn {
				d.fail("node %d: children %d,%d violate preorder in %d nodes", i, l, r, nn)
				return nil
			}
		}
	}

	return &CompiledTree{
		schema:  schema,
		classes: classes,
		nodes:   nd,
		dists:   dists,
		sindex:  sindex,
	}
}

// ReadSnapshot decodes snapshot bytes into a compiled tree plus the
// caller meta blob written alongside it. Corrupt, truncated, or
// version-mismatched input and forest snapshots return an error; it
// never panics.
func ReadSnapshot(data []byte) (*CompiledTree, []byte, error) {
	d := &sdec{b: data}
	if magic := d.take(len(snapMagic)); d.err != nil || string(magic) != snapMagic {
		return nil, nil, fmt.Errorf("c45: not a model snapshot (bad magic)")
	}
	if v := d.u32(); d.err == nil && v != snapVersion {
		return nil, nil, fmt.Errorf("c45: snapshot version %d, this build reads %d", v, snapVersion)
	}
	if e := d.u32(); d.err == nil && e != snapEndian {
		return nil, nil, fmt.Errorf("c45: snapshot endianness marker %#x, want %#x", e, snapEndian)
	}
	kb := d.take(4)
	if d.err != nil {
		return nil, nil, d.err
	}
	kind := kb[0]
	if kb[1] != 0 || kb[2] != 0 || kb[3] != 0 {
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: reserved header bytes are not zero")
	}
	metaLen := d.count(1)
	if d.err == nil && metaLen > snapMaxMeta {
		d.fail("meta %d bytes exceeds the %d limit", metaLen, snapMaxMeta)
	}
	meta := append([]byte(nil), d.take(metaLen)...)
	payloadLen := d.u64()
	crcOff := d.off // the CRC field itself is excluded from the checksum
	wantCRC := d.u64()
	if d.err != nil {
		return nil, nil, d.err
	}
	if payloadLen != uint64(len(data)-d.off) {
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: payload length %d, file holds %d", payloadLen, len(data)-d.off)
	}
	payload := data[d.off:]
	if got := crc64.Update(crc64.Checksum(data[:crcOff], snapCRC), snapCRC, payload); got != wantCRC {
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: checksum %#x, want %#x", got, wantCRC)
	}
	switch kind {
	case snapKindTree:
	case snapKindForest:
		return nil, nil, fmt.Errorf("c45: snapshot holds a bagged forest; forest snapshots are not served")
	default:
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: unknown model kind %d", kind)
	}

	p := &sdec{b: payload}
	schema := p.strs()
	classes := p.strs()
	if n := p.u32(); p.err == nil && n != 1 {
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: tree snapshot holds %d trees", n)
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	sindex := make(map[string]int32, len(schema))
	for i, f := range schema {
		if _, dup := sindex[f]; dup {
			return nil, nil, fmt.Errorf("c45: corrupt snapshot: duplicate schema feature %q", f)
		}
		sindex[f] = int32(i)
	}
	ct := p.tree(schema, classes, sindex)
	if p.err != nil {
		return nil, nil, p.err
	}
	if p.off != len(payload) {
		return nil, nil, fmt.Errorf("c45: corrupt snapshot: %d trailing payload bytes", len(payload)-p.off)
	}
	return ct, meta, nil
}

// OpenSnapshot reads a snapshot file in one sequential read and decodes
// it. See ReadSnapshot.
func OpenSnapshot(path string) (*CompiledTree, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	model, meta, err := ReadSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return model, meta, nil
}
