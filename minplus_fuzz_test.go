package pbspgemm

import (
	"testing"

	"pbspgemm/internal/matrix"
)

// FuzzMultiplyOverMinPlus checks the tropical-semiring product against a
// scalar reference relaxation: for every vertex pair, the (min,+) SpGEMM
// entry must equal min over k of d(i,k)+d(k,j), and be absent exactly when
// no 2-hop path exists. It also pins the budgeted path (bin groups) to the
// single-shot result.
func FuzzMultiplyOverMinPlus(f *testing.F) {
	f.Add(uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(17), []byte{0, 0, 1, 0, 1, 2, 1, 0, 3, 255, 254, 253, 9, 9, 9})
	f.Add(uint8(23), []byte{8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, nSel uint8, data []byte) {
		n := int32(nSel%24) + 2
		coo := &matrix.COO{NumRows: n, NumCols: n}
		for i := 0; i+2 < len(data); i += 3 {
			coo.Row = append(coo.Row, int32(data[i])%n)
			coo.Col = append(coo.Col, int32(data[i+1])%n)
			coo.Val = append(coo.Val, 1+float64(data[i+2])/16)
		}
		d := coo.ToCSR() // duplicates summed; still a weighted digraph
		sr := MinPlus()
		gd := Float64Matrix(d)

		got, err := MultiplyOver(sr, gd.ToCSC(), gd)
		if err != nil {
			t.Fatal(err)
		}
		budgeted, err := MultiplyOver(sr, gd.ToCSC(), gd, WithMemoryBudget(256))
		if err != nil {
			t.Fatal(err)
		}

		// Scalar reference: dense min-plus relaxation over stored entries.
		const unset = 1e308
		want := make([][]float64, n)
		for i := range want {
			want[i] = make([]float64, n)
			for j := range want[i] {
				want[i][j] = unset
			}
		}
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
			for j := range dist[i] {
				dist[i][j] = unset
			}
		}
		for i := int32(0); i < n; i++ {
			for p := d.RowPtr[i]; p < d.RowPtr[i+1]; p++ {
				dist[i][d.ColIdx[p]] = d.Val[p]
			}
		}
		for i := int32(0); i < n; i++ {
			for k := int32(0); k < n; k++ {
				if dist[i][k] == unset {
					continue
				}
				for j := int32(0); j < n; j++ {
					if dist[k][j] == unset {
						continue
					}
					if rel := dist[i][k] + dist[k][j]; rel < want[i][j] {
						want[i][j] = rel
					}
				}
			}
		}

		for _, c := range []*Matrix[float64]{got, budgeted} {
			var stored int
			for i := int32(0); i < n; i++ {
				for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
					j := c.ColIdx[p]
					if want[i][j] == unset {
						t.Fatalf("(%d,%d): stored %v, but no 2-hop path exists", i, j, c.Val[p])
					}
					if diff := c.Val[p] - want[i][j]; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("(%d,%d) = %v, want %v", i, j, c.Val[p], want[i][j])
					}
					stored++
				}
			}
			var finite int
			for i := range want {
				for j := range want[i] {
					if want[i][j] != unset {
						finite++
					}
				}
			}
			if stored != finite {
				t.Fatalf("product stores %d entries, reference has %d finite distances", stored, finite)
			}
		}
	})
}
