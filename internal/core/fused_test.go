package core

import (
	"fmt"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// TestFusedMatchesUnfusedBitIdentical is the fused pipeline's equivalence
// matrix: on ER and R-MAT inputs, budgeted and unbudgeted, at
// Threads ∈ {1, 2, 8} and in both tuple layouts, the fused (default) output
// must be bit-identical — structure and float64 values — to the unfused
// PR 4 path. Every sort is stable and every fold runs in arrival order —
// compress order — so this holds with no tolerance at all.
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
		for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
			for _, budget := range []int64{0, 64 << 10} {
				for _, threads := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%v/budget=%d/threads=%d", in.name, layout, budget, threads)
					t.Run(name, func(t *testing.T) {
						opt := Options{Threads: threads, ForceLayout: layout, MemoryBudgetBytes: budget}
						opt.DisableFusion = true
						want, stU, err := Multiply(acsc, in.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if stU.Fused {
							t.Fatal("DisableFusion run reported Fused")
						}
						opt.DisableFusion = false
						got, stF, err := Multiply(acsc, in.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !stF.Fused {
							t.Fatal("default run did not report Fused")
						}
						if budget > 0 && stF.NPanels < 2 {
							t.Fatalf("budget %d did not tile (panels=%d)", budget, stF.NPanels)
						}
						if !csrBitIdentical(want, got) {
							t.Fatal("fused output not bit-identical to unfused")
						}
					})
				}
			}
		}
	}
}

// TestFusedSplitBinsBitIdentical forces the oversized-bin work-stealing
// split (tiny L2 budget, few bins, skewed R-MAT) and checks the fused
// parallel result against sequential fused and against unfused — the split
// path folds a partitioned bin with the two-pointer compress, which must
// equal the whole-bin fused sort bit for bit.
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
		for _, threads := range []int{2, 8} {
			opt := base
			opt.Threads = threads
			got, _, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !csrBitIdentical(want, got) {
				t.Fatalf("layout=%v threads=%d: split fused output drifted from sequential", layout, threads)
			}
			opt.DisableFusion = true
			unf, _, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !csrBitIdentical(want, unf) {
				t.Fatalf("layout=%v threads=%d: unfused split output differs", layout, threads)
			}
		}
	}
}

// TestSortSplitCutoffPerLayout pins the oversized-bin split decision to the
// post-squeeze tuple byte size: the cutoff is 2·L2/tupleBytes TUPLES, so the
// squeezed layout (12 B) splits later in tuple count — the same resident
// byte budget — than the wide layout (16 B), never at a layout-independent
// constant.
func TestSortSplitCutoffPerLayout(t *testing.T) {
	const l2 = int64(1) << 20
	sq := sortSplitCutoffTuples(SqueezedTupleBytes, l2)
	wide := sortSplitCutoffTuples(WideTupleBytes, l2)
	if sq != 2*l2/12 {
		t.Fatalf("squeezed cutoff = %d, want %d", sq, 2*l2/12)
	}
	if wide != 2*l2/16 {
		t.Fatalf("wide cutoff = %d, want %d", wide, 2*l2/16)
	}
	if sq <= wide {
		t.Fatalf("squeezed cutoff %d not above wide %d: split decision is not layout-aware", sq, wide)
	}
	// Both layouts resolve to the same resident-byte budget (up to one
	// tuple of integer-division rounding).
	if diff := wide*WideTupleBytes - sq*SqueezedTupleBytes; diff < 0 || diff >= SqueezedTupleBytes {
		t.Fatalf("cutoffs disagree in bytes: %d vs %d", sq*SqueezedTupleBytes, wide*WideTupleBytes)
	}
	// Tiny L2 budgets floor at 4096 tuples so the split machinery never
	// degenerates into per-element tasks.
	if got := sortSplitCutoffTuples(SqueezedTupleBytes, 1024); got != 4096 {
		t.Fatalf("floored cutoff = %d, want 4096", got)
	}

	// The engine derives its cutoff from the run's actual layout: a bin size
	// between the two cutoffs must split under the wide layout but not the
	// squeezed one.
	between := (sq + wide) / 2
	for _, tc := range []struct {
		layout Layout
		bytes  int64
		split  bool
	}{
		{LayoutSqueezed, SqueezedTupleBytes, false},
		{LayoutWide, WideTupleBytes, true},
	} {
		e := engine{opt: Options{L2CacheBytes: int(l2)}.withDefaults(), tupleBytes: tc.bytes}
		if got := between > e.sortSplitCutoff(); got != tc.split {
			t.Fatalf("layout %v: bin of %d tuples split=%v, want %v", tc.layout, between, got, tc.split)
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
			} else if !st.Fused || st.Layout != tc.layout {
				t.Fatalf("fused=%v layout=%v, want fused %v", st.Fused, st.Layout, tc.layout)
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

// FuzzFusedVsUnfused drives random shapes through the fused and unfused
// pipelines — single-shot, budgeted, pooled and multi-threaded — and asserts
// identical CSR. Values are small integers (fuzzMatrices), so the comparison
// is exact; TestFusedMatchesUnfusedBitIdentical additionally holds real
// values bit-identical on fixed inputs.
func FuzzFusedVsUnfused(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	wsF, wsU := NewWorkspace(), NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		for _, base := range []Options{
			{},
			{Threads: 3},
			{MemoryBudgetBytes: 256},
			{MemoryBudgetBytes: 16, Threads: 2},
			{ForceLayout: LayoutWide},
			{ForceLayout: LayoutWide, MemoryBudgetBytes: 128},
		} {
			uopt := base
			uopt.DisableFusion = true
			if base.Threads <= 1 {
				uopt.Workspace = wsU
			}
			want, _, err := Multiply(a, b, uopt)
			if err != nil {
				t.Fatal(err)
			}
			fopt := base
			if base.Threads <= 1 {
				fopt.Workspace = wsF
			}
			got, st, err := Multiply(a, b, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Fused {
				t.Fatalf("default run not fused (opt %+v)", fopt)
			}
			if !matrix.Equal(want, got, 0) {
				t.Fatalf("fused output differs from unfused (opt %+v)", base)
			}
		}
	})
}

// BenchmarkFusedVsUnfused is the PR 5 acceptance benchmark: the high-cf
// R-MAT regime (the compress sweep the fusion removes is largest relative
// to output there), fused vs the three-pass PR 4 path, both layouts, on a
// pooled workspace.
func BenchmarkFusedVsUnfused(b *testing.B) {
	a := gen.RMAT(10, 32, gen.Graph500Params, 1).ToCSC()
	m := gen.RMAT(10, 32, gen.Graph500Params, 2)
	for _, tc := range []struct {
		name    string
		layout  Layout
		unfused bool
	}{
		{"squeezed/fused", LayoutSqueezed, false},
		{"squeezed/unfused", LayoutSqueezed, true},
		{"wide/fused", LayoutWide, false},
		{"wide/unfused", LayoutWide, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := NewWorkspace()
			opt := Options{Workspace: ws, Threads: 1, ForceLayout: tc.layout, DisableFusion: tc.unfused}
			_, st, err := Multiply(a, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			if st.Fused == tc.unfused {
				b.Fatal("fusion flag not honored")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Multiply(a, m, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(st.Flops)/sec/1e9, "GFLOPS")
		})
	}
}

// TestFusedBudgetedShallowAndDeep holds the fused budgeted run to the unfused
// one at a shallow budget (2-3 panels: a bin gathers two or three runs) and a
// deep one (many panels, many runs per bin): bit-identical on the same budget.
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
			for _, threads := range []int{1, 4} {
				opt := Options{Threads: threads, MemoryBudgetBytes: tc.budget}
				opt.DisableFusion = true
				want, _, err := Multiply(acsc, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.DisableFusion = false
				opt.Workspace = NewWorkspace()
				got, st, err := Multiply(acsc, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if st.NPanels < tc.minPanels {
					t.Fatalf("budget %d produced %d panels, want ≥ %d", tc.budget, st.NPanels, tc.minPanels)
				}
				if !csrBitIdentical(want, got.Clone()) {
					t.Fatalf("threads=%d: fused budgeted (%s) differs from unfused", threads, tc.name)
				}
			}
		})
	}
}
