package matrix

import (
	"math"
	"math/bits"
	"slices"
)

// Equal reports whether a and b have identical structure and values equal
// within tol (relative to the larger magnitude). Both must be canonical CSR.
// SpGEMM algorithms sum floating-point products in different orders, so exact
// equality is only guaranteed for integer-valued inputs; tests use a small
// tolerance for random values.
func Equal(a, b *CSR, tol float64) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := int32(0); i <= a.NumRows; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for p := range a.ColIdx {
		if a.ColIdx[p] != b.ColIdx[p] {
			return false
		}
		av, bv := a.Val[p], b.Val[p]
		if av == bv {
			continue
		}
		scale := math.Max(math.Abs(av), math.Abs(bv))
		if math.Abs(av-bv) > tol*math.Max(scale, 1) {
			return false
		}
	}
	return true
}

// Flops returns the number of multiplications flop(A,B) required to compute
// A*B: sum over k of nnz(A(:,k)) * nnz(B(k,:)). This is the quantity the
// paper's symbolic phase computes (Algorithm 3) and the numerator of every
// arithmetic-intensity bound.
func Flops(a *CSC, b *CSR) int64 {
	if a.NumCols != b.NumRows {
		return 0
	}
	return PairFlops(a.ColPtr, b.RowPtr)
}

// PairFlops is Flops over A's column pointers and B's row pointers alone, for
// operands of any value type: Σₖ nnz(A(:,k))·nnz(B(k,:)).
func PairFlops(colPtr, rowPtr []int64) int64 {
	var flops int64
	for k := 1; k < len(colPtr); k++ {
		flops += (colPtr[k] - colPtr[k-1]) * (rowPtr[k] - rowPtr[k-1])
	}
	return flops
}

// FlopsCSR is Flops with A in CSR form: sum over rows i and entries (i,k) of
// nnz(B(k,:)): one pass over A's column indices against B's row pointers,
// allocating nothing, so the Auto planner and the engine's metrics call it per call.
func FlopsCSR(a, b *CSR) int64 {
	if a.NumCols != b.NumRows {
		return 0
	}
	var flops int64
	for _, k := range a.ColIdx {
		flops += b.RowPtr[k+1] - b.RowPtr[k]
	}
	return flops
}

// ProductNNZ returns nnz(A*B) exactly: EstimateProductNNZ's Gustavson pass
// over every row.
func ProductNNZ(a, b *CSR) int64 {
	flop := FlopsCSR(a, b)
	nnz, _ := EstimateProductNNZ(a, b, flop, flop, nil)
	return nnz
}

// minSampleRows is the fewest rows EstimateProductNNZ samples, however heavy.
const minSampleRows = 32

// EstimateProductNNZ returns nnz(A*B) for planning purposes: exact (via the
// Gustavson symbolic pass) when flop ≤ sampleBudget, otherwise estimated from
// a deterministic strided sample of A's rows scaled by the flop ratio. The
// sample is bounded by work, not by rows: the stride is the one at which rows
// of average cost visit about sampleBudget products, and never leaves fewer
// than minSampleRows rows (a product of fewer rows is counted exactly); past
// them, the sample stops before the product that would exceed sampleBudget.
// visited is the number of products the pass looked at: flop when the count
// is exact. flop must be FlopsCSR(a, b). scratch, if non-nil, pools the
// O(cols(B)) marker across calls (grow-only); pass nil for a transient one.
func EstimateProductNNZ(a, b *CSR, flop, sampleBudget int64, scratch *[]int32) (nnzC, visited int64) {
	if flop == 0 {
		return 0, 0
	}
	var transient []int32
	if scratch == nil {
		scratch = &transient
	}
	marker := Grow(scratch, int(b.NumCols))
	for i := range marker {
		marker[i] = -1
	}
	rows := int(a.NumRows)
	stride := 1
	if flop > sampleBudget {
		stride = max(1, rows/max(minSampleRows, int(int64(rows)*sampleBudget/flop)))
	}
	var sampleFlops, sampleNNZ int64
sample:
	for i, taken := 0, 0; i < rows; i, taken = i+stride, taken+1 {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			bcols := b.ColIdx[b.RowPtr[a.ColIdx[p]]:b.RowPtr[a.ColIdx[p]+1]]
			if taken >= minSampleRows && sampleFlops+int64(len(bcols)) > sampleBudget {
				break sample
			}
			sampleFlops += int64(len(bcols))
			for _, j := range bcols {
				// A conditional move, not a branch: first touches are a coin toss
				// at cf ≈ 2 and a mispredicted one costs more than the store.
				var first int64
				if marker[j] != int32(i) {
					first = 1
				}
				marker[j] = int32(i)
				sampleNNZ += first
			}
		}
	}
	if sampleFlops == flop {
		return sampleNNZ, flop
	}
	if sampleFlops == 0 {
		// The sample hit only empty rows; assume no compression (cf = 1),
		// the conservative choice that favors the PB default.
		return flop, 0
	}
	return min(max(int64(float64(sampleNNZ)*float64(flop)/float64(sampleFlops)), 1), flop), sampleFlops
}

// ReferenceMultiply computes C = A*B, the oracle every kernel, layout, budget
// and shard grid is held to bit for bit. C(i,j) is +0 plus the products
// A(i,k)·B(k,j), each rounded to float64 on its own, added in A's row storage
// order (ascending k on canonical input), within one k in B's: a group of −0
// products is +0, NaN and ±Inf propagate, a sum of 0 is stored, and rows come
// out sorted, one entry a column, however the input orders or repeats entries.
// Inner dimensions that differ panic with ErrShape. Rows fold in a dense
// accumulator (Gilbert, Moler and Schreiber, SIAM J. Matrix Anal. Appl. 1992)
// over the ranks of the column ids B stores, so memory is O(nnz(B) + nnz(C))
// whatever cols(B); a counting pass sizes C exactly. It uses only the standard
// library: no code of internal/{radix,baseline,core}.
func ReferenceMultiply(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(ErrShape)
	}
	cols, rank := rankColumns(b)
	// mark[r] is 1 + the last row to touch rank r; the tests on it compile to
	// conditional moves, as a first touch is a coin toss at cf ≈ 2. firsts has
	// a spare slot: the fold stores every rank at firsts[n] before counting it.
	mark, firsts := make([]int32, len(cols)), make([]int32, len(cols)+1)
	c := &CSR{NumRows: a.NumRows, NumCols: b.NumCols, RowPtr: make([]int64, a.NumRows+1)}
	for i := int32(0); i < a.NumRows; i++ {
		n := c.RowPtr[i]
		for _, k := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			for _, r := range rank[b.RowPtr[k]:b.RowPtr[k+1]] {
				if mark[r] != i+1 {
					n++
				}
				mark[r] = i + 1
			}
		}
		c.RowPtr[i+1] = n
	}
	c.ColIdx, c.Val = make([]int32, c.RowPtr[a.NumRows]), make([]float64, c.RowPtr[a.NumRows])
	clear(mark)
	// Rows emit ranks ascending from a bitmap, words, and a bitmap of its words
	// in use, summary: a summary word per 4 096 ranks is scanned, no sort.
	words, summary := make([]uint64, (len(cols)+63)/64), make([]uint64, (len(cols)+4095)/4096)
	acc := make([]float64, len(cols)) // +0 between rows
	for i := int32(0); i < a.NumRows; i++ {
		n := 0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k, av := a.ColIdx[p], a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				r := rank[q]
				if firsts[n] = r; mark[r] != i+1 {
					n++
				}
				mark[r] = i + 1
				acc[r] += float64(av * b.Val[q]) // the conversion forbids a fused multiply-add
			}
		}
		for _, r := range firsts[:n] {
			words[r>>6] |= 1 << (r & 63)
			summary[r>>12] |= 1 << (r >> 6 & 63)
		}
		x := c.RowPtr[i]
		for si, sw := range summary {
			for summary[si] = 0; sw != 0; sw &= sw - 1 {
				w := si<<6 | bits.TrailingZeros64(sw)
				for ww := words[w]; ww != 0; ww &= ww - 1 {
					r := w<<6 | bits.TrailingZeros64(ww)
					c.ColIdx[x], c.Val[x], acc[r] = cols[r], acc[r], 0
					x++
				}
				words[w] = 0
			}
		}
	}
	return c
}

// rankColumns returns the distinct column ids B stores, ascending, and each
// stored entry's rank among them: through a table indexed by column when
// cols(B) ≤ 4·nnz(B), else by sorting the ids, so memory stays O(nnz(B)).
func rankColumns(b *CSR) (cols, rank []int32) {
	rank = make([]int32, len(b.ColIdx))
	if int64(b.NumCols) > 4*int64(len(b.ColIdx)) {
		cols = slices.Compact(slices.Sorted(slices.Values(b.ColIdx)))
		for q, j := range b.ColIdx {
			r, _ := slices.BinarySearch(cols, j)
			rank[q] = int32(r)
		}
		return cols, rank
	}
	table := make([]int32, b.NumCols)
	for _, j := range b.ColIdx {
		table[j] = 1
	}
	for j, seen := range table {
		if seen != 0 {
			table[j], cols = int32(len(cols)), append(cols, int32(j))
		}
	}
	for q, j := range b.ColIdx {
		rank[q] = table[j]
	}
	return cols, rank
}

// ScaleColumns multiplies each column j of m in place by s[j]. Used by the
// Markov-clustering example's inflation/normalization steps.
func (m *CSR) ScaleColumns(s []float64) {
	for p, c := range m.ColIdx {
		m.Val[p] *= s[c]
	}
}

// ColumnSums returns the per-column sums of m.
func (m *CSR) ColumnSums() []float64 {
	sums := make([]float64, m.NumCols)
	for p, c := range m.ColIdx {
		sums[c] += m.Val[p]
	}
	return sums
}

// Apply replaces every stored value v with f(v) in place.
func (m *CSR) Apply(f func(float64) float64) {
	for i, v := range m.Val {
		m.Val[i] = f(v)
	}
}

// Prune returns a copy of m with entries of magnitude < threshold removed.
func (m *CSR) Prune(threshold float64) *CSR {
	out := &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: make([]int64, m.NumRows+1)}
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if math.Abs(m.Val[p]) >= threshold {
				out.ColIdx = append(out.ColIdx, m.ColIdx[p])
				out.Val = append(out.Val, m.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.Val))
	}
	return out
}

// DropMasked removes in place every entry of the canonical CSR planes
// (rowPtr, colIdx, val) whose position mask stores: the complement mask
// C⟨¬M⟩ applied to a finished product, one linear merge of each row against
// the mask's row. rowPtr is rewritten; the kept prefixes of colIdx and val are
// returned. mask must be canonical and have as many rows.
func DropMasked[V any](rowPtr []int64, colIdx []int32, val []V, mask *CSR) ([]int32, []V) {
	var w int64
	for i := range len(rowPtr) - 1 {
		lo, hi := rowPtr[i], rowPtr[i+1]
		mp, mEnd := mask.RowPtr[i], mask.RowPtr[i+1]
		rowPtr[i] = w
		for p := lo; p < hi; p++ {
			col := colIdx[p]
			for mp < mEnd && mask.ColIdx[mp] < col {
				mp++
			}
			if mp < mEnd && mask.ColIdx[mp] == col {
				continue
			}
			colIdx[w], val[w] = col, val[p]
			w++
		}
	}
	rowPtr[len(rowPtr)-1] = w
	return colIdx[:w], val[:w]
}
