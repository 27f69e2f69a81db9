// Package sparse implements the sparse-matrix substrate for the expanded
// CTMCs produced by the Markovian approximation algorithm of the paper.
//
// The expanded generator Q* of Section 5 has N·n1·n2 states (up to a few
// million at the paper's finest step size Δ=5) with at most a handful of
// nonzeros per row, so a compressed sparse row (CSR) representation with
// 32-bit column indices is used. Matrices are assembled through a
// coordinate (COO) Builder and then frozen into an immutable CSR matrix
// whose vector products can run in parallel.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"batlife/internal/check"
)

// ErrShape reports a dimension mismatch between a matrix and a vector or
// between two matrices.
var ErrShape = errors.New("sparse: dimension mismatch")

// Builder accumulates coordinate-format entries for a rows×cols matrix.
// Duplicate entries for the same (row, col) are summed when the matrix
// is frozen, which is convenient for generator assembly where diagonal
// entries are accumulated as negative row sums.
type Builder struct {
	rows, cols int
	entries    []entry
}

type entry struct {
	row, col int32
	val      float64
}

// NewBuilder returns a Builder for a rows×cols matrix. The sizeHint
// preallocates entry storage; pass 0 if unknown.
func NewBuilder(rows, cols, sizeHint int) *Builder {
	return &Builder{
		rows:    rows,
		cols:    cols,
		entries: make([]entry, 0, sizeHint),
	}
}

// Rows reports the number of rows of the matrix under construction.
func (b *Builder) Rows() int { return b.rows }

// Cols reports the number of columns of the matrix under construction.
func (b *Builder) Cols() int { return b.cols }

// NNZ reports the number of entries added so far (before duplicate
// merging).
func (b *Builder) NNZ() int { return len(b.entries) }

// Add records v at position (row, col). Zero values are skipped.
// Out-of-range coordinates are reported at Freeze time, so assembly
// loops stay free of per-entry error handling.
//
//numlint:requires finite(v)
func (b *Builder) Add(row, col int, v float64) {
	numlintContract_Builder_Add(v)
	if v == 0 {
		return
	}
	b.entries = append(b.entries, entry{row: int32(row), col: int32(col), val: v})
}

// Freeze validates the accumulated entries, merges duplicates, and
// returns the immutable CSR matrix.
func (b *Builder) Freeze() (*CSR, error) {
	for _, e := range b.entries {
		if e.row < 0 || int(e.row) >= b.rows || e.col < 0 || int(e.col) >= b.cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d matrix: %w",
				e.row, e.col, b.rows, b.cols, ErrShape)
		}
		if math.IsNaN(e.val) || math.IsInf(e.val, 0) {
			return nil, fmt.Errorf("sparse: entry (%d,%d) is not finite: %v", e.row, e.col, e.val)
		}
	}
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].row != b.entries[j].row {
			return b.entries[i].row < b.entries[j].row
		}
		return b.entries[i].col < b.entries[j].col
	})

	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
	}
	m.colIdx = make([]int32, 0, len(b.entries))
	m.vals = make([]float64, 0, len(b.entries))

	for i := 0; i < len(b.entries); {
		j := i
		sum := 0.0
		for j < len(b.entries) && b.entries[j].row == b.entries[i].row && b.entries[j].col == b.entries[i].col {
			sum += b.entries[j].val
			j++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, b.entries[i].col)
			m.vals = append(m.vals, sum)
			m.rowPtr[b.entries[i].row+1]++
		}
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	check.CSRWellFormed("sparse.Freeze", m)
	return m, nil
}

// CSR is an immutable sparse matrix in compressed sparse row format.
type CSR struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	vals       []float64

	// part caches the most recently computed nnz-balanced row partition
	// (one entry suffices: a matrix is nearly always driven by one pool
	// with a fixed worker count). Validate invalidates it, so hand-built
	// matrices that mutate and re-validate get fresh chunk boundaries.
	part atomic.Pointer[rowPartition]
}

// Validate performs a structural self-check: row-pointer monotonicity
// and bounds, in-range strictly ascending column indices per row, and
// finite stored values. Freeze guarantees all of these, so Validate only
// fails on memory corruption or a hand-built matrix; it backs the
// debugchecks invariant layer (internal/check) and is cheap enough to
// call directly in tests.
func (m *CSR) Validate() error {
	// Validation is the designated entry point after any out-of-band
	// mutation of a hand-built matrix, so drop the cached row partition:
	// its chunk boundaries were balanced for the old sparsity pattern.
	m.part.Store(nil)
	if len(m.rowPtr) != m.rows+1 {
		return fmt.Errorf("sparse: rowPtr has %d entries for %d rows", len(m.rowPtr), m.rows)
	}
	if m.rowPtr[0] != 0 || int(m.rowPtr[m.rows]) != len(m.vals) || len(m.colIdx) != len(m.vals) {
		return fmt.Errorf("sparse: rowPtr spans [%d,%d] over %d values and %d columns",
			m.rowPtr[0], m.rowPtr[m.rows], len(m.vals), len(m.colIdx))
	}
	for r := 0; r < m.rows; r++ {
		if m.rowPtr[r] > m.rowPtr[r+1] {
			return fmt.Errorf("sparse: rowPtr not monotone at row %d", r)
		}
		prev := int32(-1)
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			if c < 0 || int(c) >= m.cols {
				return fmt.Errorf("sparse: row %d references column %d of %d", r, c, m.cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", r, c)
			}
			prev = c
			if v := m.vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sparse: entry (%d,%d) is not finite: %v", r, c, v)
			}
		}
	}
	return nil
}

// Rows reports the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ reports the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the value at (row, col); absent entries are zero.
func (m *CSR) At(row, col int) float64 {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		return 0
	}
	lo, hi := int(m.rowPtr[row]), int(m.rowPtr[row+1])
	idx := lo + sort.Search(hi-lo, func(i int) bool { return m.colIdx[lo+i] >= int32(col) })
	if idx < hi && m.colIdx[idx] == int32(col) {
		return m.vals[idx]
	}
	return 0
}

// Row iterates over the nonzeros of one row.
func (m *CSR) Row(row int, fn func(col int, v float64)) {
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		fn(int(m.colIdx[i]), m.vals[i])
	}
}

// RowSum returns the sum of the entries in one row.
func (m *CSR) RowSum(row int) float64 {
	sum := 0.0
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		sum += m.vals[i]
	}
	return sum
}

// MaxAbsDiagonal returns max_i |m[i,i]|, the quantity a uniformisation
// constant must dominate for a generator matrix.
func (m *CSR) MaxAbsDiagonal() float64 {
	maxAbs := 0.0
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if int(m.colIdx[i]) == r {
				if a := math.Abs(m.vals[i]); a > maxAbs {
					maxAbs = a
				}
			}
		}
	}
	return maxAbs
}

// Transpose returns the transposed matrix. Left multiplication x·M — the
// direction uniformisation iterates — is implemented as Transpose(M)·x,
// so transposition is done once per transient solve.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int32, m.cols+1),
		colIdx: make([]int32, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	// Count entries per column of m.
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := make([]int32, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			pos := next[c]
			t.colIdx[pos] = int32(r)
			t.vals[pos] = m.vals[i]
			next[c]++
		}
	}
	return t
}

// MulVec computes dst = m·x (matrix times column vector) over every
// row: MulVecRange over [0, rows). dst and x must not alias. It runs
// serially; see Pool.MulVec for large matrices.
//
//numlint:hotpath
func (m *CSR) MulVec(dst, x []float64) error {
	return m.MulVecRange(dst, x, 0, m.rows)
}

// MulVecRange computes dst[r] = m[r,:]·x for the rows r in [lo, hi) and
// leaves every other entry of dst untouched — the serial SpMV kernel.
// dst and x must not alias.
//
//numlint:hotpath
func (m *CSR) MulVecRange(dst, x []float64, lo, hi int) error {
	if len(x) != m.cols || len(dst) != m.rows || !m.validRange(lo, hi) {
		//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
		return fmt.Errorf("sparse: MulVec %dx%d rows [%d,%d) with |x|=%d |dst|=%d: %w",
			m.rows, m.cols, lo, hi, len(x), len(dst), ErrShape)
	}
	m.mulRows(dst, x, lo, hi)
	check.FiniteVec("sparse.CSR.MulVec", dst[lo:hi])
	return nil
}

// validRange reports whether [lo, hi) is a row range of m.
func (m *CSR) validRange(lo, hi int) bool {
	return 0 <= lo && lo <= hi && hi <= m.rows
}

// RangeNNZ reports the number of stored entries in rows [lo, hi): the
// non-zeros a ranged product over those rows streams through.
func (m *CSR) RangeNNZ(lo, hi int) int {
	return int(m.rowPtr[hi] - m.rowPtr[lo])
}

// VecMul computes dst = x·m (row vector times matrix) without
// transposing. It is a gather-free scatter loop and therefore serial;
// for repeated products transpose once and use MulVec.
//
//numlint:hotpath
func (m *CSR) VecMul(dst, x []float64) error {
	if len(x) != m.rows || len(dst) != m.cols {
		//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
		return fmt.Errorf("sparse: VecMul %dx%d with |x|=%d |dst|=%d: %w",
			m.rows, m.cols, len(x), len(dst), ErrShape)
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			dst[m.colIdx[i]] += m.vals[i] * xr
		}
	}
	check.FiniteVec("sparse.CSR.VecMul", dst)
	return nil
}

// Dense returns the matrix as a dense row-major slice of rows, intended
// for tests and small systems only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.rows)
	for r := range d {
		d[r] = make([]float64, m.cols)
	}
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d[r][m.colIdx[i]] = m.vals[i]
		}
	}
	return d
}

// MulVecAccum computes, for the rows r in [lo, hi), dst[r] = m[r,:]·x
// and, when w != 0, acc[r] += w·dst[r] in the same pass — the serial
// fused kernel behind Pool.MulVecAccum. Rows outside the range are left
// untouched. dst, x and acc must not alias. Bit-identical to MulVecRange
// followed by an element-wise accumulate over the same rows: each
// element sees the same multiply-add in the same order.
//
//numlint:hotpath
func (m *CSR) MulVecAccum(dst, x, acc []float64, w float64, lo, hi int) error {
	if len(x) != m.cols || len(dst) != m.rows || len(acc) != m.rows || !m.validRange(lo, hi) {
		//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
		return fmt.Errorf("sparse: MulVecAccum %dx%d rows [%d,%d) with |x|=%d |dst|=%d |acc|=%d: %w",
			m.rows, m.cols, lo, hi, len(x), len(dst), len(acc), ErrShape)
	}
	m.mulAccumRows(dst, x, acc, w, lo, hi)
	check.FiniteVec("sparse.CSR.MulVecAccum", dst[lo:hi])
	return nil
}

// mulRows is the plain SpMV kernel over one row range. The CSR arrays
// are hoisted into locals: indexing receiver fields inside the loop
// defeats bounds-check elimination (the compiler must assume dst writes
// may alias the header of m.vals) and costs ~35% on a 50k-row chain.
func (m *CSR) mulRows(dst, x []float64, lo, hi int) {
	rowPtr, vals, colIdx := m.rowPtr, m.vals, m.colIdx
	for r := lo; r < hi; r++ {
		sum := 0.0
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			sum += vals[i] * x[colIdx[i]]
		}
		dst[r] = sum
	}
}

// mulAccumRows is the fused multiply-accumulate kernel over one row
// range: dst[r] = m[r,:]·x and, when w != 0, acc[r] += w·dst[r] while
// the freshly computed sum is still in a register.
func (m *CSR) mulAccumRows(dst, x, acc []float64, w float64, lo, hi int) {
	if w == 0 {
		// Matches the unfused path exactly: a zero Poisson weight folds
		// nothing in (foldIn skips p <= 0), so skip the accumulate
		// rather than adding +0.0 to every element.
		m.mulRows(dst, x, lo, hi)
		return
	}
	rowPtr, vals, colIdx := m.rowPtr, m.vals, m.colIdx
	for r := lo; r < hi; r++ {
		sum := 0.0
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			sum += vals[i] * x[colIdx[i]]
		}
		dst[r] = sum
		acc[r] += w * sum
	}
}

// rowPartition is a precomputed nnz-balanced split of a matrix's rows
// into chunks: bounds[i]..bounds[i+1] is chunk i. imbalance is the
// heaviest chunk's weight relative to the ideal (total/chunks); 1.0 is
// perfect balance.
type rowPartition struct {
	chunks    int
	bounds    []int32
	imbalance float64
}

// rowPartition returns the cached nnz-balanced partition of the rows
// into at most `chunks` contiguous chunks, computing and caching it on
// first use (or when the requested chunk count changes). Row weight is
// nnz(row)+1 so empty-row regions still split, and a chunk never ends
// mid-row, so every parallel product remains bit-identical to the
// serial kernel. The greedy cut guarantees every chunk's weight is
// below ideal + the heaviest single row.
func (m *CSR) rowPartition(chunks int) *rowPartition {
	if p := m.part.Load(); p != nil && p.chunks == chunks {
		return p
	}
	p := computePartition(m.rowPtr, m.rows, chunks)
	m.part.Store(p)
	return p
}

// computePartition greedily cuts rows into nnz-balanced chunks.
func computePartition(rowPtr []int32, rows, chunks int) *rowPartition {
	if chunks < 1 {
		chunks = 1
	}
	if chunks > rows {
		chunks = rows
	}
	total := int64(rowPtr[rows]) + int64(rows) // Σ (nnz(r) + 1)
	ideal := float64(total) / float64(chunks)
	bounds := make([]int32, 1, chunks+1)
	var acc, maxChunk int64
	var cut int64 = 1 // cut after the chunk's weight reaches cut*ideal
	for r := 0; r < rows; r++ {
		acc += int64(rowPtr[r+1]-rowPtr[r]) + 1
		// Cut as soon as the cumulative weight crosses the next ideal
		// boundary, but leave enough rows for the remaining chunks.
		if float64(acc) >= float64(cut)*ideal && len(bounds) < chunks && rows-r-1 >= chunks-len(bounds) {
			bounds = append(bounds, int32(r+1))
			cut++
		}
	}
	bounds = append(bounds, int32(rows))
	// Measure the realised balance.
	for i := 0; i+1 < len(bounds); i++ {
		w := chunkWeight(rowPtr, int(bounds[i]), int(bounds[i+1]))
		if w > maxChunk {
			maxChunk = w
		}
	}
	imb := 1.0
	if ideal > 0 {
		imb = float64(maxChunk) / ideal
	}
	return &rowPartition{chunks: len(bounds) - 1, bounds: bounds, imbalance: imb}
}

// chunkWeight is the partition weight (nnz + row count) of rows [lo,hi).
func chunkWeight(rowPtr []int32, lo, hi int) int64 {
	return int64(rowPtr[hi]-rowPtr[lo]) + int64(hi-lo)
}
