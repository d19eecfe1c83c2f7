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
	if int32(len(m.RowPtr)) != m.NumRows+1 {
		return fmt.Errorf("matrix: RowPtr length %d != rows+1 %d", len(m.RowPtr), m.NumRows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.NumRows] != int64(len(m.ColIdx)) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("matrix: nnz mismatch: RowPtr end %d, ColIdx %d, Val %d",
			m.RowPtr[m.NumRows], len(m.ColIdx), len(m.Val))
	}
	for i := int32(0); i < m.NumRows; i++ {
		// Bounding each pointer by nnz, not only the last, keeps a corrupt
		// middle pointer from walking past ColIdx.
		if m.RowPtr[i] > m.RowPtr[i+1] || m.RowPtr[i+1] > int64(len(m.ColIdx)) {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			if c < 0 || c >= m.NumCols {
				return fmt.Errorf("matrix: column %d out of range [0,%d) at row %d", c, m.NumCols, i)
			}
			if p > m.RowPtr[i] && m.ColIdx[p-1] >= c {
				return fmt.Errorf("matrix: row %d not sorted/unique at position %d", i, p)
			}
		}
	}
	return nil
}

// Validate checks the CSC structural invariants (mirror of CSR.Validate).
func (m *CSC) Validate() error {
	if int32(len(m.ColPtr)) != m.NumCols+1 {
		return fmt.Errorf("matrix: ColPtr length %d != cols+1 %d", len(m.ColPtr), m.NumCols+1)
	}
	if m.ColPtr[0] != 0 {
		return fmt.Errorf("matrix: ColPtr[0] = %d, want 0", m.ColPtr[0])
	}
	if m.ColPtr[m.NumCols] != int64(len(m.RowIdx)) || len(m.RowIdx) != len(m.Val) {
		return fmt.Errorf("matrix: nnz mismatch: ColPtr end %d, RowIdx %d, Val %d",
			m.ColPtr[m.NumCols], len(m.RowIdx), len(m.Val))
	}
	for j := int32(0); j < m.NumCols; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] || m.ColPtr[j+1] > int64(len(m.RowIdx)) {
			return fmt.Errorf("matrix: ColPtr not monotone at col %d", j)
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			if r < 0 || r >= m.NumRows {
				return fmt.Errorf("matrix: row %d out of range [0,%d) at col %d", r, m.NumRows, j)
			}
			if p > m.ColPtr[j] && m.RowIdx[p-1] >= r {
				return fmt.Errorf("matrix: col %d not sorted/unique at position %d", j, p)
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
