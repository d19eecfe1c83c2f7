package pbspgemm

import (
	"fmt"
	"testing"

	"pbspgemm/internal/matrix"
)

// FuzzSPAvsPB holds the row kernel to PB-SpGEMM, bit for bit, on random small
// shapes — empty rows, 1×n · n×1, cols(B) on neither side of a multiple of 64,
// duplicates summed by the COO conversion: the float64 SPA (and both to
// Reference), and MultiplyOver under WithAlgorithm(SPA) against PB over
// Arithmetic, MinPlus and Boolean (over all-true operands, the structural
// product, and over ones that store false).
func FuzzSPAvsPB(f *testing.F) {
	f.Add(uint8(5), uint8(5), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 1, 4, 1, 5, 9})
	f.Add(uint8(0), uint8(40), uint8(0), []byte{0, 1, 7, 0, 9, 3, 5, 0, 2, 11, 0, 8}) // 1×n · n×1
	f.Add(uint8(9), uint8(3), uint8(64), []byte{8, 2, 64, 250, 1, 1, 63, 9, 2, 0, 0, 65, 7})
	f.Add(uint8(30), uint8(30), uint8(127), []byte{})
	f.Fuzz(func(t *testing.T, mSel, kSel, nSel uint8, data []byte) {
		m, k, n := int32(mSel%48)+1, int32(kSel%48)+1, int32(nSel%160)+1
		aco := &matrix.COO{NumRows: m, NumCols: k}
		bco := &matrix.COO{NumRows: k, NumCols: n}
		for i := 0; i+2 < len(data); i += 3 {
			co, rows, cols := aco, m, k
			if i/3%2 == 1 {
				co, rows, cols = bco, k, n
			}
			co.Row = append(co.Row, int32(data[i])%rows)
			co.Col = append(co.Col, int32(data[i+1])%cols)
			co.Val = append(co.Val, float64(int8(data[i+2]))/8)
		}
		a, b := aco.ToCSR(), bco.ToCSR()
		want := Reference(a, b)
		for _, threads := range []int{1, 3} {
			pb, err := multiply(a, b, WithAlgorithm(PB), WithThreads(threads))
			if err != nil {
				t.Fatal(err)
			}
			spa, err := multiply(a, b, WithAlgorithm(SPA), WithThreads(threads))
			if err != nil {
				t.Fatal(err)
			}
			if err := spa.C.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := sameBytes(pb.C, spa.C); err != nil {
				t.Fatalf("threads=%d: SPA is not PB bit for bit: %v", threads, err)
			}
			if !EqualWithin(want, spa.C, 1e-12) {
				t.Fatalf("threads=%d: SPA differs from Reference", threads)
			}

			af, bf := Float64Matrix(a), Float64Matrix(b)
			for _, sr := range []Semiring[float64]{Arithmetic(), MinPlus()} {
				rows, pbc := overBoth(t, sr, af.ToCSC(), bf, threads)
				if err := sameBytes(Float64CSR(pbc), Float64CSR(rows)); err != nil {
					t.Fatalf("threads=%d, %s: the row kernel is not PB bit for bit: %v", threads, sr.Name, err)
				}
			}
			for _, truth := range []func(float64) bool{func(float64) bool { return true }, func(v float64) bool { return v > 0 }} {
				rows, pbc := overBoth(t, Boolean(), MatrixOf(a, truth).ToCSC(), MatrixOf(b, truth), threads)
				if fmt.Sprint(rows) != fmt.Sprint(pbc) {
					t.Fatalf("threads=%d, Boolean: the row kernel gives %v, PB %v", threads, rows, pbc)
				}
			}
		}
	})
}

// overBoth runs MultiplyOver under WithAlgorithm(SPA) and WithAlgorithm(PB).
func overBoth[T any](t *testing.T, sr Semiring[T], a *ColMatrix[T], b *Matrix[T], threads int) (rows, pb *Matrix[T]) {
	t.Helper()
	var p SemiringPlan
	rows, err := MultiplyOver(sr, a, b, WithAlgorithm(SPA), WithThreads(threads), WithSemiringPlan(&p))
	if err != nil || !p.Rows {
		t.Fatalf("%s under SPA: %v, plan %+v", sr.Name, err, p)
	}
	if err := rows.Validate(); err != nil {
		t.Fatalf("%s under SPA: %v", sr.Name, err)
	}
	if pb, err = MultiplyOver(sr, a, b, WithAlgorithm(PB), WithThreads(threads)); err != nil {
		t.Fatal(err)
	}
	return rows, pb
}
