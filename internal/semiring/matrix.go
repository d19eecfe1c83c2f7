package semiring

import "pbspgemm/internal/matrix"

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
func (m *CSRg[T]) ToCSC() *CSCg[T] {
	out := &CSCg[T]{NumRows: m.NumRows, NumCols: m.NumCols}
	matrix.TransposeInto(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, m.Val, &out.ColPtr, &out.RowIdx, &out.Val)
	return out
}

// Validate checks the structural invariants, returning what CSR.Validate
// returns for the same arrays.
func (m *CSRg[T]) Validate() error {
	return matrix.ValidateCSR(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, len(m.Val))
}
