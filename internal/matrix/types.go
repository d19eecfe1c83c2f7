// Package matrix implements the sparse matrix storage formats used by the
// PB-SpGEMM paper: Compressed Sparse Row (CSR), Compressed Sparse Column
// (CSC), and Coordinate (COO). Indices are 4-byte integers and values are
// 8-byte floats, so one stored tuple costs b = 16 bytes — the constant the
// paper's arithmetic-intensity model (Section II-C) is built on.
package matrix

import (
	"errors"
	"fmt"
)

// BytesPerTuple is b in the paper's AI model: 4 bytes rowid + 4 bytes colid +
// 8 bytes value for a COO tuple.
const BytesPerTuple = 16

// ErrShape is returned when matrix dimensions are inconsistent with an
// operation (e.g. inner dimensions of a product disagree).
var ErrShape = errors.New("matrix: incompatible shapes")

// COO is a coordinate-format sparse matrix: parallel arrays of row indices,
// column indices and values. Entries may appear in any order and duplicates
// are allowed until ToCSR sums them. COO is the format of the expanded matrix
// C-hat in the paper.
type COO struct {
	NumRows, NumCols int32
	Row, Col         []int32
	Val              []float64
}

// CSR is a compressed sparse row matrix. RowPtr has NumRows+1 entries;
// row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] and Val likewise. Within a
// row, column indices are sorted ascending and unique for a canonical CSR.
type CSR struct {
	NumRows, NumCols int32
	RowPtr           []int64
	ColIdx           []int32
	Val              []float64
}

// CSC is a compressed sparse column matrix, the transpose layout of CSR.
type CSC struct {
	NumRows, NumCols int32
	ColPtr           []int64
	RowIdx           []int32
	Val              []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 { return int64(len(m.Val)) }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int64 { return int64(len(m.Val)) }

// AvgDegree returns d(A) = nnz/n with n = max(rows, cols), the paper's
// average nonzeros per row or column.
func (m *CSR) AvgDegree() float64 {
	n := m.NumRows
	if m.NumCols > n {
		n = m.NumCols
	}
	if n == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(n)
}

// NewCSR allocates an empty CSR with the given shape and capacity nnz.
func NewCSR(rows, cols int32, nnz int64) *CSR {
	return &CSR{
		NumRows: rows, NumCols: cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]int32, nnz),
		Val:    make([]float64, nnz),
	}
}

// NewCSC allocates an empty CSC with the given shape and capacity nnz.
func NewCSC(rows, cols int32, nnz int64) *CSC {
	return &CSC{
		NumRows: rows, NumCols: cols,
		ColPtr: make([]int64, cols+1),
		RowIdx: make([]int32, nnz),
		Val:    make([]float64, nnz),
	}
}

// Validate checks structural invariants: monotone pointers, in-range indices,
// and (for canonical matrices) sorted unique indices within each row.
func (m *CSR) Validate() error {
	return ValidateCSR(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, len(m.Val))
}

// ValidateCSR is CSR.Validate over the arrays of a CSR of any value type,
// nval values long.
func ValidateCSR(rows, cols int32, rowPtr []int64, colIdx []int32, nval int) error {
	return validate(csrAxes, rows, cols, rowPtr, colIdx, nval)
}

// Validate checks the CSC structural invariants (mirror of CSR.Validate).
func (m *CSC) Validate() error {
	return validate(cscAxes, m.NumCols, m.NumRows, m.ColPtr, m.RowIdx, len(m.Val))
}

// axes names compressed storage's arrays and dimensions in validate's errors.
type axes struct{ ptr, idx, major, minor string }

var (
	csrAxes = axes{"RowPtr", "ColIdx", "row", "column"}
	cscAxes = axes{"ColPtr", "RowIdx", "col", "row"}
)

// validate is the one structural check of compressed storage: n vectors over m
// indices, their pointers running from 0 to nnz = nval, monotone, and each
// bounded by nnz — so that a corrupt middle pointer cannot walk past idx —
// and each vector's indices in [0, m), ascending and unique.
func validate(ax axes, n, m int32, ptr []int64, idx []int32, nval int) error {
	if n < 0 || int32(len(ptr)) != n+1 {
		return fmt.Errorf("matrix: %s length %d != %ss+1 %d", ax.ptr, len(ptr), ax.major, n+1)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("matrix: %s[0] = %d, want 0", ax.ptr, ptr[0])
	}
	if ptr[n] != int64(len(idx)) || len(idx) != nval {
		return fmt.Errorf("matrix: nnz mismatch: %s end %d, %s %d, Val %d", ax.ptr, ptr[n], ax.idx, len(idx), nval)
	}
	for i := int32(0); i < n; i++ {
		if ptr[i] > ptr[i+1] || ptr[i+1] > int64(len(idx)) {
			return fmt.Errorf("matrix: %s not monotone at %s %d", ax.ptr, ax.major, i)
		}
		for p := ptr[i]; p < ptr[i+1]; p++ {
			c := idx[p]
			if c < 0 || c >= m {
				return fmt.Errorf("matrix: %s %d out of range [0,%d) at %s %d", ax.minor, c, m, ax.major, i)
			}
			if p > ptr[i] && idx[p-1] >= c {
				return fmt.Errorf("matrix: %s %d not sorted/unique at position %d", ax.major, i, p)
			}
		}
	}
	return nil
}

// Validate checks that all COO coordinates are in range.
func (m *COO) Validate() error {
	if len(m.Row) != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("matrix: COO array lengths differ: %d/%d/%d", len(m.Row), len(m.Col), len(m.Val))
	}
	for i := range m.Row {
		if m.Row[i] < 0 || m.Row[i] >= m.NumRows || m.Col[i] < 0 || m.Col[i] >= m.NumCols {
			return fmt.Errorf("matrix: entry %d (%d,%d) out of range %dx%d", i, m.Row[i], m.Col[i], m.NumRows, m.NumCols)
		}
	}
	return nil
}
