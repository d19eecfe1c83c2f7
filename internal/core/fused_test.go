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
// in ascending k, the first one assigned and each later one added. Exported
// for the core_test package's tests.
func FoldReference(a, b *matrix.CSR) *matrix.CSR {
	c := &matrix.CSR{NumRows: a.NumRows, NumCols: b.NumCols, RowPtr: make([]int64, a.NumRows+1)}
	acc := map[int32]float64{}
	for r := int32(0); r < a.NumRows; r++ {
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			k := a.ColIdx[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				col, v := b.ColIdx[q], a.Val[p]*b.Val[q]
				if sum, ok := acc[col]; ok {
					v = sum + v
				}
				acc[col] = v
			}
		}
		cols := make([]int32, 0, len(acc))
		for col := range acc {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		for _, col := range cols {
			c.ColIdx = append(c.ColIdx, col)
			c.Val = append(c.Val, acc[col])
		}
		c.RowPtr[r+1] = int64(len(c.ColIdx))
		clear(acc)
	}
	return c
}

// TestFusedMatchesUnfusedBitIdentical is the fused pipeline's real-valued
// equivalence matrix: on ER and R-MAT inputs, budgeted and unbudgeted, at
// Threads ∈ {1, 2, 8} and in both tuple layouts, the output must be
// bit-identical — structure and float64 values — to FoldReference, the
// scalar fold in ascending k, which no budget changes.
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
		want := FoldReference(in.a, in.b)
		for _, budget := range []int64{0, 64 << 10} {
			for _, l := range float64Layouts {
				for _, threads := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%v/budget=%d/threads=%d", in.name, l.layout, budget, threads)
					t.Run(name, func(t *testing.T) {
						opt := Options{Threads: threads, MemoryBudgetBytes: budget}
						got, st, err := l.mul(acsc, in.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if budget > 0 && st.NGroups < 2 {
							t.Fatalf("budget %d did not cut the bins (groups=%d)", budget, st.NGroups)
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
	for _, l := range float64Layouts {
		layout := l.layout
		base := Options{Threads: 1, NBins: 2, L2CacheBytes: 4096}
		want, _, err := l.mul(acsc, b, base)
		if err != nil {
			t.Fatal(err)
		}
		if !csrBitIdentical(FoldReference(a, b), want) {
			t.Fatalf("layout=%v: sequential output differs from the ascending-k fold", layout)
		}
		for _, threads := range []int{2, 8} {
			opt := base
			opt.Threads = threads
			got, _, err := l.mul(acsc, b, opt)
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
// whole and once, so SortOwned is the bin count — a budgeted run's groups add
// up to it — and SortStolen stays 0. One thread counts nothing.
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
		}
		if tc.budget > 0 && st.NGroups < 2 {
			t.Fatalf("budget %d did not cut the bins", tc.budget)
		}
		if st.SortOwned != want || st.SortStolen != 0 {
			t.Fatalf("threads=%d budget=%d: SortOwned %d SortStolen %d, want %d and 0 (%d bins, %d groups)",
				tc.threads, tc.budget, st.SortOwned, st.SortStolen, want, st.NBins, st.NGroups)
		}
	}
}

// TestFusedSteadyStateAllocs: the fused pipeline keeps the pooled-workspace
// zero-alloc guarantee at Threads=1 in both layouts, single-shot and
// budgeted (every group extends the pooled output CSR).
func TestFusedSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
		mul    multiplyFunc
		budget int64
	}{
		{"fused-squeezed", LayoutSqueezed, Multiply, 0},
		{"fused-squeezed-budgeted", LayoutSqueezed, Multiply, 32 << 10},
		{"fused-wide", LayoutWide, multiplyWide, 0},
		{"fused-wide-budgeted", LayoutWide, multiplyWide, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget}
			if _, st, err := tc.mul(a, b, opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout=%v, want %v", st.Layout, tc.layout)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := tc.mul(a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocated %.1f times per call, want 0", tc.name, allocs)
			}
		})
	}
}

// TestFusedBudgetedShallowAndDeep holds the budgeted run to FoldReference at
// a shallow budget (2-3 bin groups) and a deep one (many groups, a bin or two
// each): bit-identical.
func TestFusedBudgetedShallowAndDeep(t *testing.T) {
	a := gen.RMAT(9, 16, gen.Graph500Params, 51)
	acsc := a.ToCSC()
	b := gen.RMAT(9, 16, gen.Graph500Params, 52)
	flops := matrix.FlopsCSR(a, b)
	for _, tc := range []struct {
		name      string
		budget    int64
		minGroups int
	}{
		{"shallow", flops * WideTupleBytes / 2, 2},
		{"deep", flops * WideTupleBytes / 16, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := FoldReference(a, b)
			for _, threads := range []int{1, 4} {
				opt := Options{Threads: threads, MemoryBudgetBytes: tc.budget, Workspace: NewWorkspace()}
				got, st, err := Multiply(acsc, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if st.NGroups < tc.minGroups {
					t.Fatalf("budget %d produced %d groups, want ≥ %d", tc.budget, st.NGroups, tc.minGroups)
				}
				if !csrBitIdentical(want, got.Clone()) {
					t.Fatalf("threads=%d: budgeted (%s) differs from the ascending-k fold", threads, tc.name)
				}
			}
		})
	}
}
