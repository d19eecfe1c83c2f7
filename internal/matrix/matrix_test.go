package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

// randomCOO builds a deterministic pseudo-random COO from a seed without
// importing gen (which would create an import cycle in tests).
func randomCOO(seed uint64, rows, cols int32, nnz int) *COO {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	m := &COO{NumRows: rows, NumCols: cols}
	for e := 0; e < nnz; e++ {
		m.Row = append(m.Row, int32(next()%uint64(rows)))
		m.Col = append(m.Col, int32(next()%uint64(cols)))
		m.Val = append(m.Val, float64(next()>>11)/(1<<53))
	}
	return m
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := &COO{
		NumRows: 3, NumCols: 3,
		Row: []int32{1, 1, 0, 1},
		Col: []int32{2, 2, 0, 0},
		Val: []float64{1.5, 2.5, 1.0, 3.0},
	}
	csr := coo.ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 after dedup", csr.NNZ())
	}
	// Entry (1,2) must be 4.0.
	found := false
	for p := csr.RowPtr[1]; p < csr.RowPtr[2]; p++ {
		if csr.ColIdx[p] == 2 {
			found = true
			if csr.Val[p] != 4.0 {
				t.Fatalf("(1,2) = %v, want 4.0", csr.Val[p])
			}
		}
	}
	if !found {
		t.Fatal("entry (1,2) missing")
	}
}

func TestRoundTripCSRCSC(t *testing.T) {
	m := randomCOO(1, 50, 70, 400).ToCSR()
	back := m.ToCSC().ToCSR()
	if !Equal(m, back, 0) {
		t.Fatal("CSR -> CSC -> CSR round trip changed the matrix")
	}
	if err := m.ToCSC().Validate(); err != nil {
		t.Fatal(err)
	}
}

// toCOO expands CSR into coordinate format, preserving row-major order: the
// inverse of ToCSR on canonical input, which the round-trip tests check.
func toCOO(m *CSR) *COO {
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

func TestRoundTripCOO(t *testing.T) {
	m := randomCOO(2, 40, 40, 300).ToCSR()
	back := toCOO(m).ToCSR()
	if !Equal(m, back, 0) {
		t.Fatal("CSR -> COO -> CSR round trip changed the matrix")
	}
}

func TestQuickRoundTrips(t *testing.T) {
	f := func(seed uint64, rSel, cSel uint8, nnzSel uint16) bool {
		rows := int32(rSel%80) + 1
		cols := int32(cSel%80) + 1
		nnz := int(nnzSel % 500)
		m := randomCOO(seed, rows, cols, nnz).ToCSR()
		if m.Validate() != nil {
			return false
		}
		viaCSC := m.ToCSC().ToCSR()
		viaCOO := toCOO(m).ToCSR()
		return Equal(m, viaCSC, 0) && Equal(m, viaCOO, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCOO(3, 30, 60, 250).ToCSR()
	tt := m.Transpose().Transpose()
	if !Equal(m, tt, 0) {
		t.Fatal("double transpose changed the matrix")
	}
	tr := m.Transpose()
	if tr.NumRows != m.NumCols || tr.NumCols != m.NumRows {
		t.Fatal("transpose has wrong shape")
	}
	// Spot-check: every (i,j) of m appears as (j,i) of tr.
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			ok := false
			for q := tr.RowPtr[j]; q < tr.RowPtr[j+1]; q++ {
				if tr.ColIdx[q] == i && tr.Val[q] == m.Val[p] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("entry (%d,%d) missing from transpose", i, j)
			}
		}
	}
}

func TestFlopsAgreesAcrossLayouts(t *testing.T) {
	a := randomCOO(4, 64, 64, 400).ToCSR()
	b := randomCOO(5, 64, 64, 400).ToCSR()
	if got, want := Flops(a.ToCSC(), b), FlopsCSR(a, b); got != want {
		t.Fatalf("Flops CSC/CSR disagree: %d vs %d", got, want)
	}
}

func TestFlopsBruteForce(t *testing.T) {
	f := func(seed uint64, nSel uint8, nnzSel uint16) bool {
		n := int32(nSel%40) + 2
		nnz := int(nnzSel % 200)
		a := randomCOO(seed, n, n, nnz).ToCSR()
		b := randomCOO(seed+1, n, n, nnz).ToCSR()
		// Brute force: for every A entry (i,k), count B row k entries.
		var want int64
		for i := int32(0); i < n; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				want += b.RowNNZ(a.ColIdx[p])
			}
		}
		return FlopsCSR(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestProductNNZAndCF(t *testing.T) {
	a := randomCOO(6, 80, 80, 500).ToCSR()
	c := ReferenceMultiply(a, a)
	if got := ProductNNZ(a, a); got != c.NNZ() {
		t.Fatalf("ProductNNZ = %d, want %d", got, c.NNZ())
	}
	cf := float64(Flops(a.ToCSC().ToCSR().ToCSC(), a)) / float64(ProductNNZ(a, a))
	want := float64(FlopsCSR(a, a)) / float64(c.NNZ())
	if math.Abs(cf-want) > 1e-12 {
		t.Fatalf("cf = %v, want %v", cf, want)
	}
	if cf < 1 {
		t.Fatalf("cf = %v < 1 is impossible", cf)
	}
}

func TestReferenceMultiplyKnown(t *testing.T) {
	// [[1,2],[0,3]] * [[4,0],[5,6]] = [[14,12],[15,18]]
	a := (&COO{NumRows: 2, NumCols: 2,
		Row: []int32{0, 0, 1}, Col: []int32{0, 1, 1}, Val: []float64{1, 2, 3}}).ToCSR()
	b := (&COO{NumRows: 2, NumCols: 2,
		Row: []int32{0, 1, 1}, Col: []int32{0, 0, 1}, Val: []float64{4, 5, 6}}).ToCSR()
	c := ReferenceMultiply(a, b)
	want := map[[2]int32]float64{{0, 0}: 14, {0, 1}: 12, {1, 0}: 15, {1, 1}: 18}
	if c.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", c.NNZ())
	}
	for i := int32(0); i < 2; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if v := want[[2]int32{i, c.ColIdx[p]}]; v != c.Val[p] {
				t.Fatalf("(%d,%d) = %v, want %v", i, c.ColIdx[p], c.Val[p], v)
			}
		}
	}
}

// elementWiseMultiplySum returns sum over all (i,j) of a(i,j)*b(i,j), the
// Hadamard-product mass. Triangle counting uses sum(A^2 .* A)/6 on a simple
// undirected graph; both operands must be canonical CSR.
func elementWiseMultiplySum(a, b *CSR) float64 {
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

func TestElementWiseMultiplySum(t *testing.T) {
	a := (&COO{NumRows: 2, NumCols: 2,
		Row: []int32{0, 1}, Col: []int32{0, 1}, Val: []float64{2, 3}}).ToCSR()
	b := (&COO{NumRows: 2, NumCols: 2,
		Row: []int32{0, 1, 1}, Col: []int32{0, 0, 1}, Val: []float64{5, 7, 11}}).ToCSR()
	if got := elementWiseMultiplySum(a, b); got != 2*5+3*11 {
		t.Fatalf("got %v, want 43", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := randomCOO(7, 10, 10, 30).ToCSR()
	cases := map[string]func(*CSR){
		"nonmonotone_rowptr": func(m *CSR) { m.RowPtr[1] = m.RowPtr[len(m.RowPtr)-1] + 5 },
		"col_out_of_range":   func(m *CSR) { m.ColIdx[0] = m.NumCols },
		"negative_col":       func(m *CSR) { m.ColIdx[0] = -1 },
		"bad_rowptr0":        func(m *CSR) { m.RowPtr[0] = 1 },
	}
	for name, corrupt := range cases {
		c := m.Clone()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt matrix", name)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	// A middle pointer past nnz over sorted columns: only the pointer bound
	// stops the row walk before it indexes past ColIdx.
	past := &CSR{NumRows: 2, NumCols: 4, RowPtr: []int64{0, 3, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 2}}
	if err := past.Validate(); err == nil {
		t.Error("pointer_past_nnz: Validate accepted corrupt matrix")
	}
	pastCSC := &CSC{NumRows: 4, NumCols: 2, ColPtr: []int64{0, 3, 2}, RowIdx: []int32{0, 1}, Val: []float64{1, 2}}
	if err := pastCSC.Validate(); err == nil {
		t.Error("pointer_past_nnz: CSC Validate accepted corrupt matrix")
	}
}

func TestCSCValidateCatchesCorruption(t *testing.T) {
	m := randomCOO(8, 10, 10, 30).ToCSR().ToCSC()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid CSC rejected: %v", err)
	}
	m.RowIdx[0] = -2
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted corrupt CSC")
	}
}

func TestPruneAndApply(t *testing.T) {
	m := (&COO{NumRows: 2, NumCols: 3,
		Row: []int32{0, 0, 1}, Col: []int32{0, 2, 1}, Val: []float64{0.1, 5, -0.2}}).ToCSR()
	m.Apply(func(v float64) float64 { return v * 2 })
	p := m.Prune(1.0)
	if p.NNZ() != 1 || p.Val[0] != 10 {
		t.Fatalf("prune result wrong: nnz=%d", p.NNZ())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnScaling(t *testing.T) {
	m := (&COO{NumRows: 2, NumCols: 2,
		Row: []int32{0, 1, 1}, Col: []int32{0, 0, 1}, Val: []float64{1, 2, 3}}).ToCSR()
	sums := m.ColumnSums()
	if sums[0] != 3 || sums[1] != 3 {
		t.Fatalf("column sums = %v", sums)
	}
	m.ScaleColumns([]float64{1.0 / 3, 1.0 / 3})
	sums = m.ColumnSums()
	if math.Abs(sums[0]-1) > 1e-12 || math.Abs(sums[1]-1) > 1e-12 {
		t.Fatalf("normalized column sums = %v", sums)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := randomCOO(9, 20, 20, 100).ToCSR()
	b := a.Clone()
	if !Equal(a, b, 0) {
		t.Fatal("identical matrices not equal")
	}
	b.Val[0] += 1e-12 * b.Val[0]
	if !Equal(a, b, 1e-9) {
		t.Fatal("tiny perturbation rejected at 1e-9 tolerance")
	}
	b.Val[0] = a.Val[0] + 1
	if Equal(a, b, 1e-9) {
		t.Fatal("large perturbation accepted")
	}
	c := randomCOO(10, 20, 20, 99).ToCSR()
	if Equal(a, c, 1) {
		t.Fatal("structurally different matrices compared equal")
	}
}

func TestAvgDegree(t *testing.T) {
	m := randomCOO(11, 10, 10, 40).ToCSR()
	want := float64(m.NNZ()) / 10
	if m.AvgDegree() != want {
		t.Fatalf("AvgDegree = %v, want %v", m.AvgDegree(), want)
	}
}

// TestEstimateProductNNZSampleIsBoundedByWork: the planner's sample is sized by
// the products it visits, not by a row count. 1024 rows of 4096 products each
// against a 256 Ki budget is a stride of 16 (64 rows); the rows on the stride
// are the only ones that do not collide, so a sample that looked anywhere else
// would see compression and estimate below flop.
func TestEstimateProductNNZSampleIsBoundedByWork(t *testing.T) {
	const rows, d, budget = 1024, 64, 256 << 10
	bco := &COO{NumRows: 2 * d, NumCols: d * d}
	for k := int32(0); k < 2*d; k++ {
		for j := int32(0); j < d; j++ {
			col := j // rows d…2d−1 all hold columns 0…d−1
			if k < d {
				col = k*d + j // rows 0…d−1 hold disjoint columns
			}
			bco.Row, bco.Col, bco.Val = append(bco.Row, k), append(bco.Col, col), append(bco.Val, 1)
		}
	}
	aco := &COO{NumRows: rows, NumCols: 2 * d}
	for i := int32(0); i < rows; i++ {
		for k := int32(0); k < d; k++ {
			col := k + d
			if i%16 == 0 {
				col = k
			}
			aco.Row, aco.Col, aco.Val = append(aco.Row, i), append(aco.Col, col), append(aco.Val, 1)
		}
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	flop := FlopsCSR(a, b)
	if est, visited := EstimateProductNNZ(a, b, flop, budget, nil); visited != 64*d*d || est != flop {
		t.Fatalf("estimate %d (%d products visited) of a %d-flop product: the sample left its 64-row stride", est, visited, flop)
	}
	// Within the budget, and below minSampleRows rows, the count is exact.
	exact := ProductNNZ(a, b)
	if est, visited := EstimateProductNNZ(a, b, flop, flop, nil); visited != flop || est != exact {
		t.Fatalf("in-budget estimate %d (%d of %d products visited), want the exact %d", est, visited, flop, exact)
	}
	few := RowBand(a, 0, minSampleRows-1)
	if est, visited := EstimateProductNNZ(few, b, FlopsCSR(few, b), 1, nil); visited != FlopsCSR(few, b) || est != ProductNNZ(few, b) {
		t.Fatalf("%d-row estimate %d (%d products visited), want exact", few.NumRows, est, visited)
	}
}

func sameCSC(x, y *CSC) bool {
	return x.NumRows == y.NumRows && x.NumCols == y.NumCols &&
		sameBits(x.ColPtr, y.ColPtr) && sameBits(x.RowIdx, y.RowIdx) && sameBits(x.Val, y.Val)
}

// TestCSCMemoExactMatch: the memo hits only on bit-equal content (a clone
// hits, a −0.0 written over +0.0 in place misses), snapshots only a matrix
// whose arrays arrived twice in a row, and every result is ToCSC's.
func TestCSCMemoExactMatch(t *testing.T) {
	var m CSCMemo
	a := randomCOO(3, 60, 50, 500).ToCSR()
	a.Val[7] = 0
	of := func(what string, x *CSR, hits int) {
		t.Helper()
		if got := m.Of(x); !sameCSC(got, x.ToCSC()) {
			t.Fatalf("%s: memo CSC differs from ToCSC", what)
		}
		if m.hits != hits {
			t.Fatalf("%s: %d hits, want %d", what, m.hits, hits)
		}
	}
	of("first arrival", a, 0)
	if m.ok || cap(m.snap.Val) != 0 {
		t.Fatal("snapshot taken on a first arrival")
	}
	of("same arrays again: snapshot", a, 0)
	of("third call", a, 1)
	of("equal-content clone", a.Clone(), 2)

	a.Val[7] = math.Copysign(0, -1) // == +0.0, but not the same bits
	of("Val mutated in place", a, 2)
	of("after the re-snapshot", a, 3)
	for q := range a.ColIdx { // the first entry that can move one column left and stay sorted
		if a.ColIdx[q]--; a.Validate() == nil {
			break
		}
		a.ColIdx[q]++
	}
	of("ColIdx mutated in place", a, 3)
	a.NumCols++
	of("reshaped", a, 3)

	for i := uint64(0); i < 3; i++ {
		m = CSCMemo{}
		fresh := randomCOO(10+i, 60, 50, 500).ToCSR()
		of("fresh matrix", fresh, 0)
		of("fresh matrix of the same content", fresh.Clone(), 0)
		if m.ok {
			t.Fatal("snapshot taken though no arrays arrived twice")
		}
	}
}

// TestDropMasked: the complement-mask drop keeps exactly the entries whose
// position the mask does not store, in order with their values, against a
// per-entry lookup — over empty rows, mask entries the matrix never reaches,
// a mask that covers everything and one that covers nothing.
func TestDropMasked(t *testing.T) {
	c := randomCOO(11, 40, 30, 500).ToCSR()
	for name, mask := range map[string]*CSR{
		"random":  randomCOO(12, 40, 30, 300).ToCSR(),
		"itself":  c,
		"empty":   randomCOO(13, 40, 30, 0).ToCSR(),
		"overlap": (&COO{NumRows: 40, NumCols: 30, Row: []int32{0, 0, 39}, Col: []int32{0, 29, 5}, Val: []float64{1, 1, 1}}).ToCSR(),
	} {
		stored := map[[2]int32]bool{}
		for i := int32(0); i < mask.NumRows; i++ {
			for p := mask.RowPtr[i]; p < mask.RowPtr[i+1]; p++ {
				stored[[2]int32{i, mask.ColIdx[p]}] = true
			}
		}
		want := &COO{NumRows: c.NumRows, NumCols: c.NumCols}
		for i := int32(0); i < c.NumRows; i++ {
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				if !stored[[2]int32{i, c.ColIdx[p]}] {
					want.Row, want.Col, want.Val = append(want.Row, i), append(want.Col, c.ColIdx[p]), append(want.Val, c.Val[p])
				}
			}
		}
		got := c.Clone()
		got.ColIdx, got.Val = DropMasked(got.RowPtr, got.ColIdx, got.Val, mask)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(want.ToCSR(), got, 0) {
			t.Fatalf("%s: drop differs from the per-entry lookup", name)
		}
	}
}
