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
