package matrix

import (
	"bytes"
	"unsafe"

	"pbspgemm/internal/radix"
)

// ToCSR converts a COO matrix to canonical CSR (rows sorted, duplicates summed
// in sorted order). The input is not modified. It packs (row, col) into a
// 64-bit key and radix-sorts, so it is O(nnz) rather than comparison-sort bound.
func (m *COO) ToCSR() *CSR {
	pairs := make([]radix.Pair[float64], len(m.Val))
	for i := range pairs {
		pairs[i] = radix.Pair[float64]{Key: uint64(uint32(m.Row[i]))<<32 | uint64(uint32(m.Col[i])), Val: m.Val[i]}
	}
	radix.SortPairsInPlace(pairs)
	n := 0 // distinct keys, folded into the prefix of pairs
	for i, p := range pairs {
		if i > 0 && p.Key == pairs[n-1].Key {
			pairs[n-1].Val += p.Val
			continue
		}
		pairs[n] = p
		n++
	}
	csr := NewCSR(m.NumRows, m.NumCols, int64(n))
	for x, p := range pairs[:n] {
		csr.RowPtr[p.Key>>32+1]++
		csr.ColIdx[x], csr.Val[x] = int32(p.Key), p.Val
	}
	for i := int32(0); i < m.NumRows; i++ {
		csr.RowPtr[i+1] += csr.RowPtr[i]
	}
	return csr
}

// ToCSC converts CSR to CSC with a counting pass (a transpose of the storage,
// not of the matrix). Cost is O(nnz + rows + cols); this is what the paper's
// harness does to feed A as CSC into the outer-product algorithm.
func (m *CSR) ToCSC() *CSC {
	nnz := m.NNZ()
	out := NewCSC(m.NumRows, m.NumCols, nnz)
	counts := make([]int64, m.NumCols+1)
	for _, c := range m.ColIdx {
		counts[c+1]++
	}
	for j := int32(0); j < m.NumCols; j++ {
		counts[j+1] += counts[j]
	}
	copy(out.ColPtr, counts)
	cursor := make([]int64, m.NumCols)
	copy(cursor, counts[:m.NumCols])
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := cursor[c]
			out.RowIdx[q] = i
			out.Val[q] = m.Val[p]
			cursor[c] = q + 1
		}
	}
	return out
}

// ToCSCInto is ToCSC reusing out's storage, grown only when capacity is
// short — the allocation-free conversion the workspace-pooled engine uses.
// It needs no scratch: ColPtr doubles as the per-column write cursor during
// the placement pass and is rotated back to exclusive-prefix form after.
// Returns out.
func (m *CSR) ToCSCInto(out *CSC) *CSC {
	nnz := m.NNZ()
	out.NumRows, out.NumCols = m.NumRows, m.NumCols
	out.ColPtr = Grow(&out.ColPtr, int(m.NumCols)+1)
	out.RowIdx = Grow(&out.RowIdx, int(nnz))
	out.Val = Grow(&out.Val, int(nnz))
	for j := range out.ColPtr {
		out.ColPtr[j] = 0
	}
	for _, c := range m.ColIdx {
		out.ColPtr[c+1]++
	}
	for j := int32(0); j < m.NumCols; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	// Place entries using ColPtr[c] as the cursor for column c; row-major
	// traversal keeps rows ascending within each column.
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := out.ColPtr[c]
			out.RowIdx[q] = i
			out.Val[q] = m.Val[p]
			out.ColPtr[c] = q + 1
		}
	}
	// ColPtr[c] now holds end(c) = start(c+1); rotate right to restore starts.
	for j := m.NumCols; j >= 1; j-- {
		out.ColPtr[j] = out.ColPtr[j-1]
	}
	out.ColPtr[0] = 0
	return out
}

// CSCMemo is ToCSCInto with a memory of its last conversion, for a caller that
// hands the same A over call after call (an engine's pooled workspace). Of
// skips the conversion only when A's dimensions and its RowPtr, ColIdx and Val
// are bit for bit those of a snapshot taken when the memoized CSC was built: a
// sequential compare, about a tenth of a conversion, and a miss costs that
// compare on top of the conversion. Neither pointer identity nor a hash is
// trusted — graph/ refills the same buffers with new values — so a hit is
// equality. Identity only decides when to pay for the snapshot (a copy of A):
// when the same backing arrays arrive twice in a row, which is what a caller
// repeating its operand does; fresh matrices each call are never copied.
type CSCMemo struct {
	csc  CSC
	snap CSR // what csc was converted from, while ok
	ok   bool
	// last is the previous arrival's backing arrays, as addresses only: a
	// memo must not pin the caller's matrix, and a reused address merely
	// takes one snapshot too many.
	last [3]uintptr
	hits int // conversions skipped; read by tests
}

// Of returns a in CSC: the memoized conversion when a equals the snapshot bit
// for bit, else a fresh ToCSCInto into the memo's storage. The result is the
// memo's and is invalidated by the next Of call.
func (m *CSCMemo) Of(a *CSR) *CSC {
	s := &m.snap
	if m.ok && s.NumRows == a.NumRows && s.NumCols == a.NumCols &&
		sameBits(s.RowPtr, a.RowPtr) && sameBits(s.ColIdx, a.ColIdx) && sameBits(s.Val, a.Val) {
		m.hits++
		return &m.csc
	}
	m.ok = false // before the conversion overwrites csc: a panic in it leaves no stale hit
	a.ToCSCInto(&m.csc)
	id := [3]uintptr{addr(a.RowPtr), addr(a.ColIdx), addr(a.Val)}
	if id == m.last {
		s.NumRows, s.NumCols = a.NumRows, a.NumCols
		s.RowPtr = append(s.RowPtr[:0], a.RowPtr...)
		s.ColIdx = append(s.ColIdx[:0], a.ColIdx...)
		s.Val = append(s.Val[:0], a.Val...)
		m.ok = true
	}
	m.last = id
	return &m.csc
}

// sameBits reports whether x and y hold the same bytes: −0.0 is not +0.0 and a
// NaN equals itself, so a hit never changes an output bit.
func sameBits[T int32 | int64 | float64](x, y []T) bool {
	return len(x) == len(y) && bytes.Equal(AsBytes(x), AsBytes(y))
}

// AsBytes is x's memory viewed as bytes, in the host's byte order.
func AsBytes[T int32 | int64 | float64](x []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), uintptr(len(x))*unsafe.Sizeof(*new(T)))
}

func addr[T any](x []T) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(x))) }

// ToCSR converts CSC to CSR (mirror of CSR.ToCSC).
func (m *CSC) ToCSR() *CSR {
	nnz := m.NNZ()
	out := NewCSR(m.NumRows, m.NumCols, nnz)
	counts := make([]int64, m.NumRows+1)
	for _, r := range m.RowIdx {
		counts[r+1]++
	}
	for i := int32(0); i < m.NumRows; i++ {
		counts[i+1] += counts[i]
	}
	copy(out.RowPtr, counts)
	cursor := make([]int64, m.NumRows)
	copy(cursor, counts[:m.NumRows])
	for j := int32(0); j < m.NumCols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			q := cursor[r]
			out.ColIdx[q] = j
			out.Val[q] = m.Val[p]
			cursor[r] = q + 1
		}
	}
	return out
}

// Transpose returns the mathematical transpose of m as CSR.
func (m *CSR) Transpose() *CSR {
	t := m.ToCSC()
	return &CSR{
		NumRows: m.NumCols, NumCols: m.NumRows,
		RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val,
	}
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	out := NewCSR(m.NumRows, m.NumCols, m.NNZ())
	copy(out.RowPtr, m.RowPtr)
	copy(out.ColIdx, m.ColIdx)
	copy(out.Val, m.Val)
	return out
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int32) int64 { return m.RowPtr[i+1] - m.RowPtr[i] }

// ColNNZ returns the number of stored entries in column j.
func (m *CSC) ColNNZ(j int32) int64 { return m.ColPtr[j+1] - m.ColPtr[j] }
