package matrix

import "math"

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
	var flops int64
	for k := int32(0); k < a.NumCols; k++ {
		flops += a.ColNNZ(k) * b.RowNNZ(k)
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

// ProductNNZ returns nnz(A*B) exactly using a Gustavson symbolic pass with a
// versioned dense marker (no allocation per row).
func ProductNNZ(a, b *CSR) int64 {
	marker := make([]int32, b.NumCols)
	for i := range marker {
		marker[i] = -1
	}
	var nnz int64
	for i := int32(0); i < a.NumRows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				j := b.ColIdx[q]
				if marker[j] != i {
					marker[j] = i
					nnz++
				}
			}
		}
	}
	return nnz
}

// minSampleRows is the fewest rows EstimateProductNNZ samples, however heavy.
const minSampleRows = 32

// EstimateProductNNZ returns nnz(A*B) for planning purposes: exact (via the
// Gustavson symbolic pass) when flop ≤ sampleBudget, otherwise estimated from
// a deterministic strided sample of A's rows scaled by the flop ratio. The
// sample is bounded by work, not by rows: the stride is the one at which rows
// of average cost visit about sampleBudget products, and never leaves fewer
// than minSampleRows rows (a product of fewer rows is counted exactly).
// sampled reports which path ran. flop must be FlopsCSR(a, b). scratch, if
// non-nil, pools the O(cols(B)) marker across calls (grow-only); pass nil
// for a transient one.
func EstimateProductNNZ(a, b *CSR, flop, sampleBudget int64, scratch *[]int32) (nnzC int64, sampled bool) {
	if flop == 0 {
		return 0, false
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
	for i := 0; i < rows; i += stride {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			bcols := b.ColIdx[b.RowPtr[a.ColIdx[p]]:b.RowPtr[a.ColIdx[p]+1]]
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
	if stride == 1 {
		return sampleNNZ, false
	}
	if sampleFlops == 0 {
		// The sample hit only empty rows; assume no compression (cf = 1),
		// the conservative choice that favors the PB default.
		return flop, true
	}
	est := int64(float64(sampleNNZ) * float64(flop) / float64(sampleFlops))
	if est < 1 {
		est = 1
	}
	if est > flop {
		est = flop
	}
	return est, true
}

// ReferenceMultiply computes C = A*B with a simple map-based accumulator.
// It is the oracle for correctness tests: slow, obviously correct, summing
// products in sorted (row, col, k) order for reproducible floating point.
func ReferenceMultiply(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(ErrShape)
	}
	out := &COO{NumRows: a.NumRows, NumCols: b.NumCols}
	acc := make(map[int32]float64)
	for i := int32(0); i < a.NumRows; i++ {
		clear(acc)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				acc[b.ColIdx[q]] += av * b.Val[q]
			}
		}
		for j, v := range acc {
			out.Row = append(out.Row, i)
			out.Col = append(out.Col, j)
			out.Val = append(out.Val, v)
		}
	}
	return out.ToCSR()
}

// ElementWiseMultiplySum returns sum over all (i,j) of a(i,j)*b(i,j), the
// Hadamard-product mass. Triangle counting uses sum(A^2 .* A)/6 on a simple
// undirected graph; both operands must be canonical CSR.
func ElementWiseMultiplySum(a, b *CSR) float64 {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		panic(ErrShape)
	}
	var total float64
	for i := int32(0); i < a.NumRows; i++ {
		p, pEnd := a.RowPtr[i], a.RowPtr[i+1]
		q, qEnd := b.RowPtr[i], b.RowPtr[i+1]
		for p < pEnd && q < qEnd {
			switch {
			case a.ColIdx[p] < b.ColIdx[q]:
				p++
			case a.ColIdx[p] > b.ColIdx[q]:
				q++
			default:
				total += a.Val[p] * b.Val[q]
				p++
				q++
			}
		}
	}
	return total
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
