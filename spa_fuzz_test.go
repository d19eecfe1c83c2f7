package pbspgemm

import (
	"testing"

	"pbspgemm/internal/matrix"
)

// FuzzSPAvsPB holds the one-pass SPA to PB-SpGEMM, bit for bit, and both to
// Reference, on random small shapes: empty rows, 1×n · n×1, cols(B) on neither
// side of a multiple of 64, duplicates summed by the COO conversion.
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
			pb, err := Multiply(a, b, Options{Algorithm: PB, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			spa, err := Multiply(a, b, Options{Algorithm: SPA, Threads: threads})
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
		}
	})
}
