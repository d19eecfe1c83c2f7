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
func (m *CSR) ToCSC() *CSC { return m.ToCSCInto(NewCSC(m.NumRows, m.NumCols, m.NNZ())) }

// ToCSCInto is ToCSC reusing out's storage, grown only when capacity is
// short — the allocation-free conversion the workspace-pooled engine uses.
// Returns out.
func (m *CSR) ToCSCInto(out *CSC) *CSC {
	out.NumRows, out.NumCols = m.NumRows, m.NumCols
	TransposeInto(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, m.Val, &out.ColPtr, &out.RowIdx, &out.Val)
	return out
}

// TransposeInto is the counting transpose of compressed storage, the one loop
// behind every CSR↔CSC conversion: the n vectors ptr, idx, val (the rows of a
// CSR, the columns of a CSC) over m indices become m vectors over n in *tp,
// *ti and *tv, each grown only when short. A vector's indices come out
// ascending. It needs no scratch: *tp doubles as the per-vector write cursor
// during the placement pass and is rotated back to exclusive-prefix form after.
func TransposeInto[T any](n, m int32, ptr []int64, idx []int32, val []T, tp *[]int64, ti *[]int32, tv *[]T) {
	nnz := ptr[n]
	cp := GrowInt64Zero(tp, int(m)+1)
	ri, tval := Grow(ti, int(nnz)), Grow(tv, int(nnz))
	for _, c := range idx[:nnz] {
		cp[c+1]++
	}
	for j := int32(0); j < m; j++ {
		cp[j+1] += cp[j]
	}
	for i := int32(0); i < n; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			c := idx[p]
			q := cp[c]
			ri[q], tval[q] = i, val[p]
			cp[c] = q + 1
		}
	}
	copy(cp[1:], cp[:m]) // each cursor ended on the next vector's start
	cp[0] = 0
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
	out := NewCSR(m.NumRows, m.NumCols, m.NNZ())
	TransposeInto(m.NumCols, m.NumRows, m.ColPtr, m.RowIdx, m.Val, &out.RowPtr, &out.ColIdx, &out.Val)
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
