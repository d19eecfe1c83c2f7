package matrix

import "pbspgemm/internal/radix"

// ToCSR converts a COO matrix to canonical CSR (rows sorted, duplicates
// summed). The input is not modified.
func (m *COO) ToCSR() *CSR {
	d := m.Dedup()
	csr := &CSR{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: make([]int64, m.NumRows+1),
		ColIdx: make([]int32, len(d.Val)),
		Val:    make([]float64, len(d.Val)),
	}
	for _, r := range d.Row {
		csr.RowPtr[r+1]++
	}
	for i := int32(0); i < m.NumRows; i++ {
		csr.RowPtr[i+1] += csr.RowPtr[i]
	}
	// d is sorted row-major, so a single sweep fills CSR in order.
	copy(csr.ColIdx, d.Col)
	copy(csr.Val, d.Val)
	return csr
}

// ToCSC converts a COO matrix to canonical CSC (columns sorted, duplicates
// summed). The input is not modified.
func (m *COO) ToCSC() *CSC {
	return m.ToCSR().ToCSC()
}

// Dedup returns a copy of m sorted row-major (row, then column) with
// duplicate coordinates summed. It packs (row, col) into a 64-bit key and
// radix-sorts, so deduplication is O(nnz) rather than comparison-sort bound.
func (m *COO) Dedup() *COO {
	n := len(m.Val)
	pairs := make([]radix.Pair[float64], n)
	for i := 0; i < n; i++ {
		pairs[i] = radix.Pair[float64]{
			Key: uint64(uint32(m.Row[i]))<<32 | uint64(uint32(m.Col[i])),
			Val: m.Val[i],
		}
	}
	radix.SortPairsInPlace(pairs)
	out := &COO{NumRows: m.NumRows, NumCols: m.NumCols}
	for i := 0; i < n; i++ {
		k := len(out.Val)
		row := int32(pairs[i].Key >> 32)
		col := int32(pairs[i].Key & 0xffffffff)
		if k > 0 && out.Row[k-1] == row && out.Col[k-1] == col {
			out.Val[k-1] += pairs[i].Val
			continue
		}
		out.Row = append(out.Row, row)
		out.Col = append(out.Col, col)
		out.Val = append(out.Val, pairs[i].Val)
	}
	return out
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
	out.ColPtr = GrowInt64(&out.ColPtr, int(m.NumCols)+1)
	out.RowIdx = GrowInt32(&out.RowIdx, int(nnz))
	out.Val = GrowFloat64(&out.Val, nnz)
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

// ToCOO expands CSR into coordinate format, preserving row-major order.
func (m *CSR) ToCOO() *COO {
	nnz := m.NNZ()
	out := &COO{
		NumRows: m.NumRows, NumCols: m.NumCols,
		Row: make([]int32, nnz), Col: make([]int32, nnz), Val: make([]float64, nnz),
	}
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Row[p] = i
			out.Col[p] = m.ColIdx[p]
			out.Val[p] = m.Val[p]
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
