package core

import (
	"fmt"
	"slices"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// FoldReference is the fold order the engine reproduces bit for bit at every
// thread count, layout and budget, computed with nothing of the engine: per
// output row a map accumulator, A walked by rows so an entry's products arrive
// in ascending k, the first one assigned and each later one added. A memory
// budget closes a partial sum at each panel cut — columns of A taken greedily
// while their outer products' 16-byte tuples fit it — and the partial sums
// are added in panel order. Exported for the core_test package's tests.
func FoldReference(a, b *matrix.CSR, budget int64) *matrix.CSR {
	colFlops := make([]int64, a.NumCols)
	for _, k := range a.ColIdx {
		colFlops[k] += b.RowPtr[k+1] - b.RowPtr[k]
	}
	panel := make([]int, a.NumCols) // the panel column k of A falls in
	if budgetTuples := budget / WideTupleBytes; budget > 0 {
		var cur int64
		for k, f := range colFlops {
			if cur > 0 && cur+f > budgetTuples {
				panel[k], cur = panel[k-1]+1, 0
			} else if k > 0 {
				panel[k] = panel[k-1]
			}
			cur += f
		}
	}
	c := &matrix.CSR{NumRows: a.NumRows, NumCols: b.NumCols, RowPtr: make([]int64, a.NumRows+1)}
	total, part := map[int32]float64{}, map[int32]float64{}
	closePanel := func() {
		for col, v := range part {
			if t, ok := total[col]; ok {
				v = t + v
			}
			total[col] = v
		}
		clear(part)
	}
	for r := int32(0); r < a.NumRows; r++ {
		open := 0
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			k := a.ColIdx[p]
			if panel[k] != open {
				closePanel()
				open = panel[k]
			}
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				col, v := b.ColIdx[q], a.Val[p]*b.Val[q]
				if acc, ok := part[col]; ok {
					v = acc + v
				}
				part[col] = v
			}
		}
		closePanel()
		cols := make([]int32, 0, len(total))
		for col := range total {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		for _, col := range cols {
			c.ColIdx = append(c.ColIdx, col)
			c.Val = append(c.Val, total[col])
		}
		c.RowPtr[r+1] = int64(len(c.ColIdx))
		clear(total)
	}
	return c
}

// TestFusedMatchesUnfusedBitIdentical is the fused pipeline's real-valued
// equivalence matrix: on ER and R-MAT inputs, budgeted and unbudgeted, at
// Threads ∈ {1, 2, 8} and in both tuple layouts, the output must be
// bit-identical — structure and float64 values — to FoldReference, the
// scalar fold in ascending k with a partial sum closed at each panel cut.
// Every sort is stable and every fold runs in arrival order, so this holds
// with no tolerance at all.
func TestFusedMatchesUnfusedBitIdentical(t *testing.T) {
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(1024, 8, 31), gen.ER(1024, 8, 32)},
		{"RMAT", gen.RMAT(10, 8, gen.Graph500Params, 33), gen.RMAT(10, 8, gen.Graph500Params, 34)},
	}
	for _, in := range inputs {
		acsc := in.a.ToCSC()
		for _, budget := range []int64{0, 64 << 10} {
			want := FoldReference(in.a, in.b, budget)
			for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
				for _, threads := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%v/budget=%d/threads=%d", in.name, layout, budget, threads)
					t.Run(name, func(t *testing.T) {
						opt := Options{Threads: threads, ForceLayout: layout, MemoryBudgetBytes: budget}
						got, st, err := Multiply(acsc, in.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if budget > 0 && st.NPanels < 2 {
							t.Fatalf("budget %d did not tile (panels=%d)", budget, st.NPanels)
						}
						if !csrBitIdentical(want, got) {
							t.Fatal("output not bit-identical to the ascending-k fold")
						}
					})
				}
			}
		}
	}
}

// TestFusedSplitBinsBitIdentical forces oversized bins (tiny L2 budget, few
// bins, skewed R-MAT) and checks the sequential result against FoldReference
// and the 2- and 8-worker results, each bin folded whole by one worker,
// against the sequential one, bit for bit.
func TestFusedSplitBinsBitIdentical(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 35)
	acsc := a.ToCSC()
	b := gen.RMAT(10, 8, gen.Graph500Params, 36)
	for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
		base := Options{Threads: 1, NBins: 2, L2CacheBytes: 4096, ForceLayout: layout}
		want, _, err := Multiply(acsc, b, base)
		if err != nil {
			t.Fatal(err)
		}
		if !csrBitIdentical(FoldReference(a, b, 0), want) {
			t.Fatalf("layout=%v: sequential output differs from the ascending-k fold", layout)
		}
		for _, threads := range []int{2, 8} {
			opt := base
			opt.Threads = threads
			got, _, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !csrBitIdentical(want, got) {
				t.Fatalf("layout=%v threads=%d: oversized-bin output drifted from sequential", layout, threads)
			}
		}
	}
}

// TestSortCountersCountWholeBins: a multi-threaded fuse phase folds every bin
// whole, so SortOwned is the bin count once per fold — each panel's, then a
// budgeted run's gathered fold — and SortStolen stays 0. One thread counts
// nothing.
func TestSortCountersCountWholeBins(t *testing.T) {
	a := gen.RMAT(9, 8, gen.Graph500Params, 37)
	acsc := a.ToCSC()
	for _, tc := range []struct {
		threads int
		budget  int64
	}{{1, 0}, {2, 0}, {4, 0}, {2, 64 << 10}} {
		_, st, err := Multiply(acsc, a, Options{Threads: tc.threads, MemoryBudgetBytes: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if tc.threads > 1 {
			want = int64(st.NBins)
			if st.NPanels > 1 {
				want *= int64(st.NPanels + 1)
			}
		}
		if tc.budget > 0 && st.NPanels < 2 {
			t.Fatalf("budget %d did not tile", tc.budget)
		}
		if st.SortOwned != want || st.SortStolen != 0 {
			t.Fatalf("threads=%d budget=%d: SortOwned %d SortStolen %d, want %d and 0 (%d bins, %d panels)",
				tc.threads, tc.budget, st.SortOwned, st.SortStolen, want, st.NBins, st.NPanels)
		}
	}
}

// TestFusedSteadyStateAllocs: the fused pipeline keeps the pooled-workspace
// zero-alloc guarantee at Threads=1 in both layouts, single-shot and
// budgeted (the budgeted path's merge emits into the pooled output CSR).
func TestFusedSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
		budget int64
	}{
		{"fused-squeezed", LayoutSqueezed, 0},
		{"fused-squeezed-budgeted", LayoutSqueezed, 32 << 10},
		{"fused-wide", LayoutWide, 0},
		{"fused-wide-budgeted", LayoutWide, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget, ForceLayout: tc.layout}
			if _, st, err := Multiply(a, b, opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout=%v, want %v", st.Layout, tc.layout)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := Multiply(a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocated %.1f times per call, want 0", tc.name, allocs)
			}
		})
	}
}

// TestFusedBudgetedShallowAndDeep holds the budgeted run to FoldReference on
// the same budget at a shallow budget (2-3 panels: a bin gathers two or three
// runs) and a deep one (many panels, many runs per bin): bit-identical.
func TestFusedBudgetedShallowAndDeep(t *testing.T) {
	a := gen.RMAT(9, 16, gen.Graph500Params, 51)
	acsc := a.ToCSC()
	b := gen.RMAT(9, 16, gen.Graph500Params, 52)
	flops := matrix.FlopsCSR(a, b)
	for _, tc := range []struct {
		name      string
		budget    int64
		minPanels int
	}{
		{"shallow", flops * WideTupleBytes / 2, 2},
		{"deep", flops * WideTupleBytes / 16, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := FoldReference(a, b, tc.budget)
			for _, threads := range []int{1, 4} {
				opt := Options{Threads: threads, MemoryBudgetBytes: tc.budget, Workspace: NewWorkspace()}
				got, st, err := Multiply(acsc, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if st.NPanels < tc.minPanels {
					t.Fatalf("budget %d produced %d panels, want ≥ %d", tc.budget, st.NPanels, tc.minPanels)
				}
				if !csrBitIdentical(want, got.Clone()) {
					t.Fatalf("threads=%d: budgeted (%s) differs from the ascending-k fold", threads, tc.name)
				}
			}
		})
	}
}
