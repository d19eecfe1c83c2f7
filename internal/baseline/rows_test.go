package baseline

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pbspgemm/internal/matrix"
)

// emitFixture builds A and B whose product has the given rows: C(i,:) holds
// the columns rows[i], and row i costs flops[i] ≥ len(rows[i]) products, the
// extra ones folding into its first columns. B (2·cols × cols) holds column
// k%cols in row k, so A(i,j) reaches column j and A(i,j+cols) reaches it again.
// Values mix magnitudes, so a fold out of ascending-k order changes bits.
func emitFixture(cols int32, rows [][]int32, flops []int) (a, b *matrix.CSR) {
	bc := &matrix.COO{NumRows: 2 * cols, NumCols: cols}
	for k := int32(0); k < 2*cols; k++ {
		bc.Row, bc.Col, bc.Val = append(bc.Row, k), append(bc.Col, k%cols), append(bc.Val, 1+float64(k%7)/3)
	}
	ac := &matrix.COO{NumRows: int32(len(rows)), NumCols: 2 * cols}
	for i, row := range rows {
		for q, j := range row {
			ac.Row, ac.Col, ac.Val = append(ac.Row, int32(i)), append(ac.Col, j), append(ac.Val, 1e-3*float64(q+1))
			if q < flops[i]-len(row) {
				ac.Row, ac.Col, ac.Val = append(ac.Row, int32(i)), append(ac.Col, j+cols), append(ac.Val, 1e3+float64(q))
			}
		}
	}
	return ac.ToCSR(), bc.ToCSR()
}

// TestRowsEmitBitmapWords: the row kernel's emission, bit for bit against
// ReferenceMultiply at one and two workers, over float64 (+, ×) and as a
// structural product. Rows hold bitmap words of 0, 1, 4, 5, 63 and 64 columns,
// first and last, where the last is partial at 65, 4 095 and 4 097 columns
// (4 writes past a word's columns land in the staging's slack); and rows of
// one product fewer than the bitmap has words and of exactly as many, so the
// walk of the words a row reached and the scan of every word both run.
func TestRowsEmitBitmapWords(t *testing.T) {
	for _, cols := range []int32{65, 4095, 4097} {
		words := int(cols+63) / 64
		var rows [][]int32
		var flops []int
		for _, n := range []int{0, 1, 4, 5, 63, 64} {
			for _, w := range []int{0, words - 1} {
				var row []int32
				for q := range n {
					if j := int32(w*64 + q*37%64); j < cols { // 37 is odd: n distinct bits
						row = append(row, j)
					}
				}
				slices.Sort(row)
				rows, flops = append(rows, row), append(flops, len(row))
			}
		}
		for _, f := range []int{words - 1, words} {
			var row []int32 // a column in each of the last (f+1)/2 words
			for q := (f + 1) / 2; q > 0; q-- {
				row = append(row, cols-1-int32(64*(q-1)))
			}
			rows, flops = append(rows, row), append(flops, f)
		}
		a, b := emitFixture(cols, rows, flops)
		want := matrix.ReferenceMultiply(a, b)
		got := make([]int64, len(rows))
		RowFlopsRange(a, b, got, 0, len(rows))
		for i, f := range flops {
			if got[i] != int64(f) || want.RowNNZ(int32(i)) != int64(len(rows[i])) {
				t.Fatalf("cols %d row %d: %d products and %d entries, want %d and %d", cols, i, got[i], want.RowNNZ(int32(i)), f, len(rows[i]))
			}
		}
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("cols%d/t%d", cols, threads), func(t *testing.T) {
				c, val, _, err := Rows(a, b, a.Val, b.Val, Ops[float64]{Arith: true}, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				if c.Val = val; !sameCSR(c, want) {
					t.Fatal("float64 product differs from ReferenceMultiply")
				}
				s, sval, _, err := Rows(a, b, nil, nil, Ops[float64]{}, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				if s.Val = want.Val; sval != nil || !sameCSR(s, want) {
					t.Fatalf("structural product differs from ReferenceMultiply's pattern (values %v)", sval != nil)
				}
			})
		}
	}
}

// sameCSR reports whether x and y hold the same bytes.
func sameCSR(x, y *matrix.CSR) bool {
	return x.NumRows == y.NumRows && x.NumCols == y.NumCols && bytes.Equal(matrix.AsBytes(x.RowPtr), matrix.AsBytes(y.RowPtr)) &&
		bytes.Equal(matrix.AsBytes(x.ColIdx), matrix.AsBytes(y.ColIdx)) && bytes.Equal(matrix.AsBytes(x.Val), matrix.AsBytes(y.Val))
}
