package core

import (
	"fmt"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// multiplyBands runs the partitioned PB-SpGEMM of Section V-D the way the
// shard coordinator does: A is cut into parts row bands (views of A) and each
// band is its own Multiply against the whole of B. Each band's product must be
// exactly the matching rows of want; the bands' stats are summed.
func multiplyBands(t *testing.T, a, b, want *matrix.CSR, parts int, opt Options) Stats {
	t.Helper()
	var sum Stats
	off := matrix.SplitPoints(a.NumRows, parts)
	for p := 0; p+1 < len(off); p++ {
		c, st, err := Multiply(matrix.RowBand(a, off[p], off[p+1]).ToCSC(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("band %d: invalid CSR: %v", p, err)
		}
		if !matrix.Equal(matrix.RowBand(want, off[p], off[p+1]), c, 1e-9) {
			t.Fatalf("band %d, rows [%d,%d): product differs from the reference's rows", p, off[p], off[p+1])
		}
		sum.Flops += st.Flops
		sum.ExpandBytes += st.ExpandBytes
		sum.NGroups += st.NGroups
	}
	return sum
}

func TestPartitionedMatchesMultiply(t *testing.T) {
	a := gen.ER(600, 6, 1)
	b := gen.ER(600, 6, 2)
	want := matrix.ReferenceMultiply(a, b)
	for _, parts := range []int{1, 2, 3, 4, 8, 600, 10000} {
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			st := multiplyBands(t, a, b, want, parts, Options{})
			if st.Flops != matrix.FlopsCSR(a, b) {
				t.Errorf("flops %d, want %d", st.Flops, matrix.FlopsCSR(a, b))
			}
		})
	}
}

func TestPartitionedSkewedInput(t *testing.T) {
	a := gen.RMAT(9, 8, gen.Graph500Params, 3)
	b := gen.RMAT(9, 8, gen.Graph500Params, 4)
	multiplyBands(t, a, b, matrix.ReferenceMultiply(a, b), 4, Options{})
}

func TestPartitionedTrafficModel(t *testing.T) {
	a := gen.ER(512, 4, 5)
	b := gen.ER(512, 4, 6)
	want := matrix.ReferenceMultiply(a, b)
	st1 := multiplyBands(t, a, b, want, 1, Options{})
	st4 := multiplyBands(t, a, b, want, 4, Options{})
	// ExpandBytes counts executed loads and stores, which band partitioning
	// re-runs unchanged (each band performs a disjoint subset of the FLOPs).
	// The physical once-per-band re-fetch of B is a cache effect that shows
	// up in measured time, so a band split that thrashes B lowers GB/s
	// instead of inflating the byte count.
	if st4.ExpandBytes != st1.ExpandBytes {
		t.Fatalf("expand traffic changed under partitioning: 4-band %d, 1-band %d",
			st4.ExpandBytes, st1.ExpandBytes)
	}
	if st4.Flops != st1.Flops {
		t.Fatalf("flops changed under partitioning: %d vs %d", st4.Flops, st1.Flops)
	}
}

func TestPartitionedEmptyBands(t *testing.T) {
	// A matrix whose nonzeros all live in the last rows: leading bands hold
	// no entries at all.
	n := int32(128)
	coo := &matrix.COO{NumRows: n, NumCols: n}
	r := gen.NewRNG(9)
	for e := 0; e < 200; e++ {
		coo.Row = append(coo.Row, n-1-r.Intn(8))
		coo.Col = append(coo.Col, r.Intn(n))
		coo.Val = append(coo.Val, r.Float64())
	}
	a := coo.ToCSR()
	multiplyBands(t, a, a, matrix.ReferenceMultiply(a, a), 4, Options{})
}

// TestPartitionedWithWorkspaceAndBudget combines the row bands with the
// budgeted engine and one workspace shared by every band.
func TestPartitionedWithWorkspaceAndBudget(t *testing.T) {
	a := gen.ER(300, 5, 21)
	b := gen.ER(300, 5, 22)
	st := multiplyBands(t, a, b, matrix.ReferenceMultiply(a, b), 3,
		Options{Workspace: NewWorkspace(), MemoryBudgetBytes: 8 << 10})
	if st.NGroups < 2*3 {
		t.Fatalf("expected the budget to cut every band's bins, NGroups=%d over 3 bands", st.NGroups)
	}
}
