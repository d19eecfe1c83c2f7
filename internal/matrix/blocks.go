package matrix

// RowBand returns rows [r0,r1) of m as a view: ColIdx and Val are sub-slices
// of m's arrays and only RowPtr is a rebased copy, so the band costs O(rows)
// whatever it holds. The whole range returns m itself. Callers treat bands
// as read-only, exactly like registry matrices.
func RowBand(m *CSR, r0, r1 int32) *CSR {
	if r0 == 0 && r1 == m.NumRows {
		return m
	}
	lo, hi := m.RowPtr[r0], m.RowPtr[r1]
	out := &CSR{NumRows: r1 - r0, NumCols: m.NumCols, RowPtr: make([]int64, r1-r0+1),
		ColIdx: m.ColIdx[lo:hi:hi], Val: m.Val[lo:hi:hi]}
	for i := range out.RowPtr {
		out.RowPtr[i] = m.RowPtr[int(r0)+i] - lo
	}
	return out
}

// ColBands cuts m into the column bands [off[j],off[j+1]) with band-local
// column indices (entry (r,c) becomes (r, c-off[j]) of band j) in one forward
// pass: rows of a canonical CSR are sorted, so a band cursor per row replaces
// a search per row per band, and every band is canonical too. A single band
// returns m itself (no copy).
func ColBands(m *CSR, off []int32) []*CSR {
	if len(off) == 2 {
		return []*CSR{m}
	}
	bands := make([]*CSR, len(off)-1)
	for j := range bands {
		// An even share plus a quarter; append grows the bands skew makes heavier.
		bands[j] = NewCSR(m.NumRows, off[j+1]-off[j], m.NNZ()/int64(len(bands))*5/4)
		bands[j].ColIdx, bands[j].Val = bands[j].ColIdx[:0], bands[j].Val[:0]
	}
	for r := int32(0); r < m.NumRows; r++ {
		j := 0
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			for c >= off[j+1] {
				j++
			}
			bands[j].ColIdx, bands[j].Val = append(bands[j].ColIdx, c-off[j]), append(bands[j].Val, m.Val[p])
		}
		for _, bd := range bands {
			bd.RowPtr[r+1] = int64(len(bd.ColIdx))
		}
	}
	return bands
}

// SplitPoints partitions [0,n) into parts near-equal contiguous ranges and
// returns the parts+1 boundary offsets. parts is clamped to [1, max(1,n)],
// so no range is ever empty while n > 0.
func SplitPoints(n int32, parts int) []int32 {
	if parts < 1 {
		parts = 1
	}
	if n > 0 && int32(parts) > n {
		parts = int(n)
	}
	off := make([]int32, parts+1)
	for t := 0; t <= parts; t++ {
		off[t] = int32(int64(n) * int64(t) / int64(parts))
	}
	return off
}
