package c45

import (
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
)

// Matrix is a struct-of-arrays feature matrix: one contiguous
// column-major float64 buffer keyed by a compiled schema, so batch
// evaluation touches flat slices only — zero map lookups on the hot
// path. Column f's values for rows [0, Rows()) live at
// data[f*stride : f*stride+rows], meaning all rows' values for the
// feature a tree node splits on are adjacent in memory: PredictBatchIdx
// loads one column per node visit and gathers rows from it.
//
// A Matrix is reusable: Reset keeps the buffer and drops the rows, so
// serving workers pool one Matrix per shard and refill it per drained
// batch without allocating. It is not safe for concurrent mutation;
// concurrent reads are fine.
type Matrix struct {
	schema []string
	sindex map[string]int32
	data   []float64
	stride int // row capacity per column
	rows   int
}

// NewMatrix returns a matrix over the given schema with row capacity
// for at least capacity rows. The schema slice is aliased, not copied —
// pass CompiledTree.Schema() directly.
func NewMatrix(schema []string, capacity int) *Matrix {
	if capacity < 1 {
		capacity = 1
	}
	sidx := make(map[string]int32, len(schema))
	for i, f := range schema {
		sidx[f] = int32(i)
	}
	return &Matrix{
		schema: schema,
		sindex: sidx,
		data:   make([]float64, len(schema)*capacity),
		stride: capacity,
	}
}

// NewMatrix returns a pooled-fill matrix laid out for this tree's
// schema.
func (ct *CompiledTree) NewMatrix(capacity int) *Matrix {
	return NewMatrix(ct.schema, capacity)
}

// Schema returns the column layout (do not mutate).
func (m *Matrix) Schema() []string { return m.schema }

// Rows returns the number of appended rows.
func (m *Matrix) Rows() int { return m.rows }

// Cap returns the row capacity before the next AppendRow reallocates.
func (m *Matrix) Cap() int { return m.stride }

// Reset drops all rows, keeping the buffer for reuse.
func (m *Matrix) Reset() { m.rows = 0 }

// grow doubles row capacity to fit at least capacity rows, preserving
// existing rows (column-major data must be re-strided).
func (m *Matrix) grow(capacity int) {
	stride := m.stride * 2
	if stride < capacity {
		stride = capacity
	}
	data := make([]float64, len(m.schema)*stride)
	for f := range m.schema {
		copy(data[f*stride:f*stride+m.rows], m.data[f*m.stride:f*m.stride+m.rows])
	}
	m.data, m.stride = data, stride
}

// AppendRow adds one row with every feature missing and returns its
// index; fill it with Set. Cells the caller will overwrite anyway are
// cheap: a strided NaN store per column.
func (m *Matrix) AppendRow() int {
	if m.rows == m.stride {
		m.grow(m.rows + 1)
	}
	r := m.rows
	m.rows++
	for f := range m.schema {
		m.data[f*m.stride+r] = ml.Missing
	}
	return r
}

// Set writes feature column f of row r. Both indices must be in range.
func (m *Matrix) Set(r int, f int, v float64) {
	m.data[f*m.stride+r] = v
}

// At reads feature column f of row r.
func (m *Matrix) At(r int, f int) float64 {
	return m.data[f*m.stride+r]
}

// AppendVector appends fv as one row (features absent from fv become
// missing values) and returns its row index.
func (m *Matrix) AppendVector(fv metrics.Vector) int {
	r := m.AppendRow()
	for name, v := range fv {
		if f, ok := m.sindex[name]; ok {
			m.data[int(f)*m.stride+r] = v
		}
	}
	return r
}

// AppendRowValues appends one schema-ordered row (len(row) must equal
// len(Schema())) and returns its row index.
func (m *Matrix) AppendRowValues(row []float64) int {
	if m.rows == m.stride {
		m.grow(m.rows + 1)
	}
	r := m.rows
	m.rows++
	for f := range row {
		m.data[f*m.stride+r] = row[f]
	}
	return r
}

// Row gathers row r into dst (len(dst) must equal len(Schema())) —
// the bridge to the scalar PredictRow and PredictRowExplain paths, used
// by the equivalence tests and by serving's explain rows.
func (m *Matrix) Row(r int, dst []float64) {
	for f := range dst {
		dst[f] = m.data[f*m.stride+r]
	}
}

// col returns feature f's column restricted to the appended rows.
func (m *Matrix) col(f int32) []float64 {
	return m.data[int(f)*m.stride : int(f)*m.stride+m.rows]
}
