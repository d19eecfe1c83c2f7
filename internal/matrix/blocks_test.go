package matrix

import (
	"slices"
	"testing"
)

// testCSR builds a small canonical CSR from a dense row-major table.
func testCSR(t *testing.T, rows, cols int32, dense [][]float64) *CSR {
	t.Helper()
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i := int32(0); i < rows; i++ {
		for j := int32(0); j < cols; j++ {
			if dense[i][j] != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, dense[i][j])
			}
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("test matrix invalid: %v", err)
	}
	return m
}

// blockRef is the row-band extraction RowBand replaced: every entry of rows
// [r0,r1) copied.
func blockRef(m *CSR, r0, r1 int32) *CSR {
	out := &CSR{NumRows: r1 - r0, NumCols: m.NumCols, RowPtr: make([]int64, r1-r0+1)}
	for r := r0; r < r1; r++ {
		for q := m.RowPtr[r]; q < m.RowPtr[r+1]; q++ {
			out.ColIdx = append(out.ColIdx, m.ColIdx[q])
			out.Val = append(out.Val, m.Val[q])
		}
		out.RowPtr[r-r0+1] = int64(len(out.ColIdx))
	}
	return out
}

func TestBlockExtraction(t *testing.T) {
	dense := [][]float64{
		{1, 0, 2, 0},
		{0, 3, 0, 4},
		{5, 0, 0, 6},
		{0, 7, 8, 0},
	}
	m := testCSR(t, 4, 4, dense)
	for r0 := int32(0); r0 <= 4; r0++ {
		for r1 := r0; r1 <= 4; r1++ {
			blk := RowBand(m, r0, r1)
			if blk.NumRows != r1-r0 || blk.NumCols != 4 {
				t.Fatalf("band [%d,%d): shape %dx%d", r0, r1, blk.NumRows, blk.NumCols)
			}
			if err := blk.Validate(); err != nil {
				t.Fatalf("band [%d,%d) invalid: %v", r0, r1, err)
			}
			for i := int32(0); i < blk.NumRows; i++ {
				got := map[int32]float64{}
				for p := blk.RowPtr[i]; p < blk.RowPtr[i+1]; p++ {
					got[blk.ColIdx[p]] = blk.Val[p]
				}
				for j := int32(0); j < blk.NumCols; j++ {
					want := dense[r0+i][j]
					if want == 0 {
						if _, ok := got[j]; ok {
							t.Fatalf("band [%d,%d) row %d has spurious col %d", r0, r1, i, j)
						}
					} else if got[j] != want {
						t.Fatalf("band [%d,%d) entry (%d,%d) = %v, want %v", r0, r1, i, j, got[j], want)
					}
				}
			}
		}
	}
}

func TestBlockFullWindowAliases(t *testing.T) {
	m := testCSR(t, 2, 2, [][]float64{{1, 0}, {0, 2}})
	if RowBand(m, 0, 2) != m {
		t.Fatal("a full-range row band should be the matrix itself")
	}
}

// TestCutsMatchBlockRef holds the row views to the copying extraction they
// replaced, on cuts whose boundaries fall in empty rows, in an empty band and
// inside a run of equal-length rows.
func TestCutsMatchBlockRef(t *testing.T) {
	banded := &COO{NumRows: 40, NumCols: 40}
	for r := int32(0); r < 40; r++ {
		for d := int32(0); d < 3; d++ { // every row holds exactly three entries
			banded.Row, banded.Col = append(banded.Row, r), append(banded.Col, (r+7*d)%40)
			banded.Val = append(banded.Val, float64(r*3+d)+0.5)
		}
	}
	sparse := randomCOO(7, 60, 90, 150).ToCSR() // most rows hold two or three entries, some none
	for name, m := range map[string]*CSR{"banded": banded.ToCSR(), "sparse": sparse,
		"wide": randomCOO(9, 5, 300, 400).ToCSR(), "empty": NewCSR(6, 6, 0)} {
		for _, rowOff := range [][]int32{{0, m.NumRows}, SplitPoints(m.NumRows, 3), {0, 1, 1, m.NumRows}} {
			for i := 0; i+1 < len(rowOff); i++ {
				got, want := RowBand(m, rowOff[i], rowOff[i+1]), blockRef(m, rowOff[i], rowOff[i+1])
				if err := got.Validate(); err != nil {
					t.Fatalf("%s rows %v band %d: %v", name, rowOff, i, err)
				}
				if got.NumRows != want.NumRows || got.NumCols != want.NumCols ||
					!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
					t.Fatalf("%s rows %v band %d differs from the reference extraction", name, rowOff, i)
				}
			}
		}
	}
}

// TestRowBandIsAView pins what makes a row band free: it shares the entry
// arrays of the matrix it was cut from, and an append to it cannot reach them.
func TestRowBandIsAView(t *testing.T) {
	m := randomCOO(3, 30, 30, 200).ToCSR()
	band := RowBand(m, 10, 20)
	if &band.ColIdx[0] != &m.ColIdx[m.RowPtr[10]] || &band.Val[0] != &m.Val[m.RowPtr[10]] {
		t.Fatal("row band copied its entries")
	}
	if cap(band.ColIdx) != len(band.ColIdx) || cap(band.Val) != len(band.Val) {
		t.Fatal("row band's slices have room to append into the parent matrix")
	}
}

func TestSplitPoints(t *testing.T) {
	for _, tc := range []struct {
		n     int32
		parts int
		want  []int32
	}{
		{10, 1, []int32{0, 10}},
		{10, 2, []int32{0, 5, 10}},
		{10, 3, []int32{0, 3, 6, 10}},
		{3, 8, []int32{0, 1, 2, 3}}, // parts clamped to n
		{7, 0, []int32{0, 7}},       // parts clamped to 1
	} {
		got := SplitPoints(tc.n, tc.parts)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitPoints(%d,%d) = %v, want %v", tc.n, tc.parts, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SplitPoints(%d,%d) = %v, want %v", tc.n, tc.parts, got, tc.want)
			}
		}
		// Every range non-empty when n > 0.
		for i := 1; i < len(got); i++ {
			if tc.n > 0 && got[i] <= got[i-1] {
				t.Fatalf("SplitPoints(%d,%d) empty range at %d: %v", tc.n, tc.parts, i, got)
			}
		}
	}
}
