package semiring

import (
	"math"
	"testing"
	"testing/quick"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

func TestArithmeticMatchesFloatKernel(t *testing.T) {
	a := gen.ER(400, 6, 1)
	b := gen.ER(400, 6, 2)
	want := matrix.ReferenceMultiply(a, b)
	sr := Arithmetic()
	ga := FromCSR(a, func(v float64) float64 { return v }).ToCSC()
	gb := FromCSR(b, func(v float64) float64 { return v })
	gc, err := MultiplyOpts(sr, ga, gb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gc.Validate(); err != nil {
		t.Fatal(err)
	}
	got := gc.ToCSR(func(v float64) float64 { return v })
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("generic arithmetic multiply differs from reference")
	}
}

func TestBooleanIsStructuralProduct(t *testing.T) {
	a := gen.ER(300, 5, 3)
	b := gen.ER(300, 5, 4)
	sr := Boolean()
	ga := FromCSR(a, func(float64) bool { return true }).ToCSC()
	gb := FromCSR(b, func(float64) bool { return true })
	gc, err := MultiplyOpts(sr, ga, gb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Structure must equal the arithmetic product's structure, all values true.
	want := matrix.ReferenceMultiply(a, b)
	if gc.NNZ() != want.NNZ() {
		t.Fatalf("boolean nnz %d != arithmetic structure %d", gc.NNZ(), want.NNZ())
	}
	for i, v := range gc.Val {
		if !v {
			t.Fatalf("boolean product has false stored value at %d", i)
		}
	}
	for p := range gc.ColIdx {
		if gc.ColIdx[p] != want.ColIdx[p] {
			t.Fatal("boolean structure differs from arithmetic structure")
		}
	}
}

func TestMinPlusIsShortestPathRelaxation(t *testing.T) {
	// Small weighted digraph; D² over (min,+) gives shortest 1-or-2-hop
	// distances. Graph: 0->1 (3), 1->2 (4), 0->2 (10).
	coo := &matrix.COO{NumRows: 3, NumCols: 3,
		Row: []int32{0, 1, 0}, Col: []int32{1, 2, 2}, Val: []float64{3, 4, 10}}
	d := coo.ToCSR()
	sr := MinPlus()
	gd := FromCSR(d, func(v float64) float64 { return v })
	gc, err := MultiplyOpts(sr, gd.ToCSC(), gd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Entry (0,2) must be min over k of d(0,k)+d(k,2) = 3+4 = 7 (beats 10+…
	// no: (0,2) via paths of exactly 2 hops; 0->1->2 = 7).
	var got float64 = math.Inf(1)
	for p := gc.RowPtr[0]; p < gc.RowPtr[1]; p++ {
		if gc.ColIdx[p] == 2 {
			got = gc.Val[p]
		}
	}
	if got != 7 {
		t.Fatalf("(0,2) 2-hop distance = %v, want 7", got)
	}
}

func TestMinPlusMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nSel uint8) bool {
		n := int32(nSel%30) + 3
		r := gen.NewRNG(seed)
		coo := &matrix.COO{NumRows: n, NumCols: n}
		for e := 0; e < int(n)*3; e++ {
			coo.Row = append(coo.Row, r.Intn(n))
			coo.Col = append(coo.Col, r.Intn(n))
			coo.Val = append(coo.Val, 1+9*r.Float64())
		}
		d := coo.ToCSR() // duplicates summed; fine, still a weighted digraph
		sr := MinPlus()
		gd := FromCSR(d, func(v float64) float64 { return v })
		gc, err := MultiplyOpts(sr, gd.ToCSC(), gd, Options{})
		if err != nil {
			return false
		}
		// Brute force min-plus product.
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			for j := range dense[i] {
				dense[i][j] = sr.Zero
			}
		}
		for i := int32(0); i < n; i++ {
			for p := d.RowPtr[i]; p < d.RowPtr[i+1]; p++ {
				dense[i][d.ColIdx[p]] = d.Val[p]
			}
		}
		want := make([][]float64, n)
		for i := range want {
			want[i] = make([]float64, n)
			for j := range want[i] {
				want[i][j] = sr.Zero
				for k := int32(0); k < n; k++ {
					if dense[i][k] != sr.Zero && dense[k][j] != sr.Zero {
						want[i][j] = sr.Plus(want[i][j], dense[i][k]+dense[k][j])
					}
				}
			}
		}
		for i := int32(0); i < n; i++ {
			for p := gc.RowPtr[i]; p < gc.RowPtr[i+1]; p++ {
				if math.Abs(gc.Val[p]-want[i][gc.ColIdx[p]]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxTimesAndPlusMax(t *testing.T) {
	// Reliability product: (0,2) over max-times of probabilities.
	coo := &matrix.COO{NumRows: 3, NumCols: 3,
		Row: []int32{0, 1, 0}, Col: []int32{1, 2, 2}, Val: []float64{0.5, 0.8, 0.9}}
	p := coo.ToCSR()
	sr := MaxTimes()
	gp := FromCSR(p, func(v float64) float64 { return v })
	gc, err := MultiplyOpts(sr, gp.ToCSC(), gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for q := gc.RowPtr[0]; q < gc.RowPtr[1]; q++ {
		if gc.ColIdx[q] == 2 && math.Abs(gc.Val[q]-0.4) > 1e-12 {
			t.Fatalf("(0,2) reliability = %v, want 0.4", gc.Val[q])
		}
	}
	pm := PlusMax()
	if pm.Plus(2, 3) != 5 || pm.Times(2, 3) != 3 {
		t.Fatal("PlusMax operators wrong")
	}
}

func TestGenericShapeMismatch(t *testing.T) {
	a := FromCSR(gen.ER(16, 2, 1), func(v float64) float64 { return v }).ToCSC()
	b := FromCSR(gen.ER(32, 2, 2), func(v float64) float64 { return v })
	if _, err := MultiplyOpts(Arithmetic(), a, b, Options{}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestGenericEmpty(t *testing.T) {
	empty := &CSRg[float64]{NumRows: 10, NumCols: 10, RowPtr: make([]int64, 11)}
	c, err := MultiplyOpts(Arithmetic(), empty.ToCSC(), empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Fatal("empty product must be empty")
	}
}

func TestFromToCSRRoundTrip(t *testing.T) {
	m := gen.ER(100, 4, 7)
	g := FromCSR(m, func(v float64) float64 { return v * 2 })
	back := g.ToCSR(func(v float64) float64 { return v / 2 })
	if !matrix.Equal(m, back, 1e-15) {
		t.Fatal("From/To CSR round trip changed the matrix")
	}
}

func TestSemiringNames(t *testing.T) {
	for _, name := range []string{Arithmetic().Name, Boolean().Name, MinPlus().Name,
		MaxTimes().Name, PlusMax().Name} {
		if name == "" {
			t.Fatal("semiring missing name")
		}
	}
}
