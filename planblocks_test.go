package pbspgemm

import (
	"context"
	"errors"
	"testing"

	"pbspgemm/internal/matrix"
)

// TestPlanBlocksCutsViewsAndCountsExactly pins what makes one cut cheap and
// its plans trustworthy: A's row bands share A's entry arrays, B is handed
// over whole, every block's Flops is the symbolic count of that block and the
// blocks add up to the whole product's. A grid that cuts B's columns or the
// inner dimension is an OptionError.
func TestPlanBlocksCutsViewsAndCountsExactly(t *testing.T) {
	eng := plannerEngine(t)
	a, b := NewRMAT(10, 8, 1), NewRMAT(10, 8, 2)
	want := Flops(a, b)
	for _, g := range []Grid{{1, 1, 1}, {5, 1, 1}} {
		gp, err := eng.PlanBlocks(context.Background(), a, b, g)
		if err != nil {
			t.Fatalf("PlanBlocks(%v): %v", g, err)
		}
		if gp.Grid != g || len(gp.Blocks) != g.Blocks() {
			t.Fatalf("PlanBlocks(%v) cut %v into %d blocks", g, gp.Grid, len(gp.Blocks))
		}
		var sum int64
		for i, blk := range gp.Blocks {
			if lo := a.RowPtr[gp.RowOffsets[i]]; blk.I != i || blk.A.NNZ() > 0 && &blk.A.ColIdx[0] != &a.ColIdx[lo] {
				t.Fatalf("grid %v: row band %d of A is block %d or a copy, want a view", g, i, blk.I)
			}
			if blk.B != b {
				t.Fatalf("grid %v: B was not handed over as it is", g)
			}
			if err := blk.A.Validate(); err != nil {
				t.Fatalf("grid %v: A(%d): %v", g, i, err)
			}
			p := blk.Plan
			if exact := Flops(blk.A, blk.B); p.Flops != exact {
				t.Fatalf("grid %v: block %d plans %d flops, has %d", g, i, p.Flops, exact)
			}
			if p.Chosen != PB || p.EstNNZC > p.Flops || p.EstNNZC > int64(blk.A.NumRows)*int64(blk.B.NumCols) || (p.Flops > 0) != (p.EstNNZC > 0) {
				t.Fatalf("grid %v: block %d plan %+v", g, i, p)
			}
			sum += p.Flops
		}
		if sum != want {
			t.Fatalf("grid %v: blocks hold %d flops of %d", g, sum, want)
		}
	}
	for _, g := range []Grid{{0, 1, 1}, {3, 4, 1}, {2, 3, 4}, {1, 1, 7}} {
		var oe *OptionError
		if _, err := eng.PlanBlocks(context.Background(), a, b, g); !errors.As(err, &oe) {
			t.Fatalf("PlanBlocks(%v): %v, want an *OptionError", g, err)
		}
	}
}

// TestPlanBlocksBalancesRowBandsByFlops: on a power-law A equal row counts
// leave the band with the hubs far heavier than the rest; bands cut on the
// per-row flop prefix stay within a quarter of the mean.
func TestPlanBlocksBalancesRowBandsByFlops(t *testing.T) {
	eng := plannerEngine(t)
	a := NewRMAT(12, 8, 3)
	gp, err := eng.PlanBlocks(context.Background(), a, a, Grid{Rows: 8, Cols: 1, Inner: 1})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(flops func(i int) int64) float64 {
		var sum, heaviest int64
		for i := 0; i < 8; i++ {
			sum, heaviest = sum+flops(i), max(heaviest, flops(i))
		}
		return float64(heaviest) * 8 / float64(sum)
	}
	balanced := spread(func(i int) int64 { return gp.Blocks[i].Plan.Flops })
	equal := matrix.SplitPoints(a.NumRows, 8)
	equalRows := spread(func(i int) int64 { return Flops(matrix.RowBand(a, equal[i], equal[i+1]), a) })
	t.Logf("max/mean block flops at 8 row bands: %.3f flop-balanced, %.3f with equal row counts", balanced, equalRows)
	if gp.Grid.Rows != 8 || balanced > 1.25 {
		t.Fatalf("grid %v, max/mean block flops %.3f, want 8 bands within 1.25", gp.Grid, balanced)
	}
}

// TestPlanBlocksMergesBandsOfOneHeavyRow: a row holding most of the product
// closes several bands at once; they merge instead of leaving empty blocks.
func TestPlanBlocksMergesBandsOfOneHeavyRow(t *testing.T) {
	eng := plannerEngine(t)
	a := &CSR{NumRows: 4, NumCols: 64, RowPtr: []int64{0, 1, 65, 66, 67}}
	for _, k := range append(append([]int32{0}, seq(64)...), 1, 2) {
		a.ColIdx, a.Val = append(a.ColIdx, k), append(a.Val, 1)
	}
	gp, err := eng.PlanBlocks(context.Background(), a, NewER(64, 4, 5), Grid{Rows: 4, Cols: 1, Inner: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gp.Grid.Rows; i++ {
		if gp.RowOffsets[i] >= gp.RowOffsets[i+1] {
			t.Fatalf("row offsets %v hold an empty band", gp.RowOffsets)
		}
		if p, exact := gp.Blocks[i].Plan.Flops, Flops(gp.Blocks[i].A, gp.Blocks[i].B); p != exact {
			t.Fatalf("merged band %d plans %d flops, has %d", i, p, exact)
		}
	}
	if gp.Grid.Rows >= 4 || len(gp.Blocks) != gp.Grid.Rows {
		t.Fatalf("grid %v with row offsets %v: want the heavy row's bands merged", gp.Grid, gp.RowOffsets)
	}
}

func seq(n int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}
