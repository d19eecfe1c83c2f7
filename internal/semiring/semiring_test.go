package semiring

import (
	"fmt"
	"math"
	"slices"
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

// TestValidateMatchesCSR: a generic matrix is checked by CSR's own validator,
// so each corruption returns the error CSR.Validate returns for the same
// arrays, whatever the element type — and a corrupt middle pointer is an
// error, not a walk past ColIdx.
func TestValidateMatchesCSR(t *testing.T) {
	cases := []struct {
		name   string
		rows   int32
		rowPtr []int64
		colIdx []int32
	}{
		{"valid", 2, []int64{0, 2, 3}, []int32{0, 2, 1}},
		{"middle pointer past nnz", 2, []int64{0, 5, 3}, []int32{0, 1, 2}},
		{"pointer not monotone", 2, []int64{0, 2, 1}, []int32{0}},
		{"pointer 0 not 0", 2, []int64{1, 2, 3}, []int32{0, 1, 2}},
		{"pointer end not nnz", 2, []int64{0, 1, 2}, []int32{0, 1, 2}},
		{"short pointers", 3, []int64{0, 1, 2}, []int32{0, 1}},
		{"column out of range", 2, []int64{0, 1, 2}, []int32{0, 3}},
		{"negative column", 2, []int64{0, 1, 2}, []int32{-1, 0}},
		{"unsorted row", 2, []int64{0, 2, 3}, []int32{2, 0, 1}},
		{"duplicate column", 2, []int64{0, 2, 3}, []int32{1, 1, 0}},
	}
	for _, c := range cases {
		m := &matrix.CSR{NumRows: c.rows, NumCols: 3, RowPtr: c.rowPtr, ColIdx: c.colIdx,
			Val: make([]float64, len(c.colIdx))}
		want := m.Validate()
		if (want == nil) != (c.name == "valid") {
			t.Fatalf("%s: CSR.Validate = %v", c.name, want)
		}
		validateLike(t, c.name, FromCSR(m, func(v float64) float64 { return v }), want)
		validateLike(t, c.name, FromCSR(m, func(float64) bool { return true }), want)
		validateLike(t, c.name, FromCSR(m, func(float64) int32 { return 1 }), want)
		short := FromCSR(m, func(float64) float32 { return 1 })
		short.Val = short.Val[:0]
		if got := short.Validate(); got == nil {
			t.Fatalf("%s: values shorter than the indices accepted", c.name)
		}
	}
}

func validateLike[T any](t *testing.T, name string, m *CSRg[T], want error) {
	t.Helper()
	got := m.Validate()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s, %T: Validate = %v, CSR.Validate %v", name, m, got, want)
	}
}

// TestTransposeRoundTrip: CSR → CSC → CSR gives back the same arrays for every
// element type, through the float64 conversions and the generic ones (ToCSC,
// and the row kernel's rowsOf back), on ER, R-MAT and a matrix with empty rows
// and columns.
func TestTransposeRoundTrip(t *testing.T) {
	holes := &matrix.COO{NumRows: 40, NumCols: 30}
	for i := int32(0); i < 40; i += 3 {
		for j := (i * 7) % 5; j < 30; j += 4 {
			holes.Row, holes.Col, holes.Val = append(holes.Row, i), append(holes.Col, j), append(holes.Val, float64(i*30+j)+0.5)
		}
	}
	for name, m := range map[string]*matrix.CSR{
		"ER":              gen.ER(200, 5, 11),
		"R-MAT":           gen.RMAT(8, 6, gen.Graph500Params, 12),
		"empty rows/cols": holes.ToCSR(),
		"no entries":      matrix.NewCSR(7, 5, 0),
	} {
		back := m.ToCSC().ToCSR()
		if !slices.Equal(back.RowPtr, m.RowPtr) || !slices.Equal(back.ColIdx, m.ColIdx) ||
			!slices.Equal(back.Val, m.Val) || back.NumRows != m.NumRows || back.NumCols != m.NumCols {
			t.Fatalf("%s: float64 CSR → CSC → CSR changed the matrix", name)
		}
		roundTrip(t, name, FromCSR(m, func(v float64) float64 { return v }))
		roundTrip(t, name, FromCSR(m, func(v float64) float32 { return float32(v) }))
		roundTrip(t, name, FromCSR(m, func(v float64) int32 { return int32(v * 10) }))
		roundTrip(t, name, FromCSR(m, func(v float64) bool { return v > 0.5 }))
	}
}

func roundTrip[T comparable](t *testing.T, name string, m *CSRg[T]) {
	t.Helper()
	c := m.ToCSC()
	if err := (&matrix.CSC{NumRows: c.NumRows, NumCols: c.NumCols, ColPtr: c.ColPtr, RowIdx: c.RowIdx,
		Val: make([]float64, len(c.Val))}).Validate(); err != nil {
		t.Fatalf("%s, %T: ToCSC: %v", name, m, err)
	}
	back := new(rowState[T]).rowsOf(c)
	if !slices.Equal(back.RowPtr, m.RowPtr) || !slices.Equal(back.ColIdx, m.ColIdx) ||
		!slices.Equal(back.Val, m.Val) || back.NumRows != m.NumRows || back.NumCols != m.NumCols {
		t.Fatalf("%s, %T: CSR → CSC → CSR changed the matrix", name, m)
	}
}
