package semiring

import (
	"fmt"

	"pbspgemm/internal/matrix"
)

// CSRg is a CSR matrix with values of any semiring element type.
type CSRg[T any] struct {
	NumRows, NumCols int32
	RowPtr           []int64
	ColIdx           []int32
	Val              []T
}

// CSCg is the column-compressed counterpart of CSRg.
type CSCg[T any] struct {
	NumRows, NumCols int32
	ColPtr           []int64
	RowIdx           []int32
	Val              []T
}

// NNZ returns the stored entry count.
func (m *CSRg[T]) NNZ() int64 { return int64(len(m.Val)) }

// NNZ returns the stored entry count.
func (m *CSCg[T]) NNZ() int64 { return int64(len(m.Val)) }

// FromCSR lifts a float64 CSR into a generic matrix, mapping each stored
// value with f (e.g. v -> v for arithmetic, v -> true for boolean).
func FromCSR[T any](m *matrix.CSR, f func(float64) T) *CSRg[T] {
	out := &CSRg[T]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    make([]T, len(m.Val)),
	}
	for i, v := range m.Val {
		out.Val[i] = f(v)
	}
	return out
}

// ToCSR lowers a generic matrix back to float64 CSR with g.
func (m *CSRg[T]) ToCSR(g func(T) float64) *matrix.CSR {
	out := &matrix.CSR{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    make([]float64, len(m.Val)),
	}
	for i, v := range m.Val {
		out.Val[i] = g(v)
	}
	return out
}

// ToCSC converts the generic CSR to generic CSC (storage transpose).
func (m *CSRg[T]) ToCSC() *CSCg[T] { return m.toCSCInto(&CSCg[T]{}) }

// toCSCInto is ToCSC into out's arrays, reallocating only the ones too short.
func (m *CSRg[T]) toCSCInto(out *CSCg[T]) *CSCg[T] {
	nnz := m.RowPtr[m.NumRows]
	out.NumRows, out.NumCols = m.NumRows, m.NumCols
	cp := matrix.Grow(&out.ColPtr, int(m.NumCols)+1)
	ri, val := matrix.Grow(&out.RowIdx, int(nnz)), matrix.Grow(&out.Val, int(nnz))
	clear(cp)
	for _, c := range m.ColIdx[:nnz] {
		cp[c+1]++
	}
	for j := int32(0); j < m.NumCols; j++ {
		cp[j+1] += cp[j]
	}
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			q := cp[m.ColIdx[p]]
			ri[q], val[q] = i, m.Val[p]
			cp[m.ColIdx[p]] = q + 1
		}
	}
	copy(cp[1:], cp[:m.NumCols]) // each cursor ended on the next column's start
	cp[0] = 0
	return out
}

// Validate checks structural invariants (mirrors matrix.CSR.Validate).
func (m *CSRg[T]) Validate() error {
	if int32(len(m.RowPtr)) != m.NumRows+1 {
		return fmt.Errorf("semiring: RowPtr length %d != rows+1 %d", len(m.RowPtr), m.NumRows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.NumRows] != int64(len(m.ColIdx)) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("semiring: inconsistent pointers/arrays")
	}
	for i := int32(0); i < m.NumRows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("semiring: RowPtr not monotone at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			if c < 0 || c >= m.NumCols {
				return fmt.Errorf("semiring: column %d out of range at row %d", c, i)
			}
			if p > m.RowPtr[i] && m.ColIdx[p-1] >= c {
				return fmt.Errorf("semiring: row %d not sorted/unique", i)
			}
		}
	}
	return nil
}
