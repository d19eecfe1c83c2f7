package core

import (
	"math"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
)

// csrBitIdentical is the strict comparison the determinism guarantees are
// held to: same structure AND bit-identical float64 values (Equal with tol 0
// still admits -0 vs +0 and NaN mismatches; determinism does not).
func csrBitIdentical(a, b *matrix.CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// expandSnapshot drives the engine through planning and expand only,
// returning a copy of the pre-sort tuple buffer in a layout-independent
// (key, value) form.
func expandSnapshot(t *testing.T, a *matrix.CSC, b *matrix.CSR, opt Options) ([]uint64, []float64) {
	t.Helper()
	opt = opt.withDefaults()
	ws := NewWorkspace()
	opt.Workspace = ws
	e, err := newEngine(a, b, opt, LayoutAuto)
	if err != nil {
		t.Fatal(err)
	}
	e.symbolic()
	e.planPanels()
	if err := e.planBins(); err != nil {
		t.Fatal(err)
	}
	e.bindLayout()
	if e.npanels != 1 {
		t.Fatal("expandSnapshot needs a single-panel run")
	}
	e.panelPlan(0, int(a.NumCols))
	e.lay.growTuples(e, e.flops)
	e.expandPanel(0)
	keys := make([]uint64, e.flops)
	vals := make([]float64, e.flops)
	if e.layout == LayoutSqueezed {
		for i := range keys {
			keys[i] = uint64(ws.tupleKeys[i])
			vals[i] = ws.kvF64.tupleVals[i]
		}
	} else {
		for i, p := range pairsOf[float64](ws).tuples[:e.flops] {
			keys[i], vals[i] = p.Key, p.Val
		}
	}
	return keys, vals
}

// TestExpandDeterministicAcrossThreads: with atomic cursors replaced by
// exclusive per-thread write offsets, the pre-sort tuple buffer — not just
// the sorted output — must be bit-identical at any thread count, in both
// layouts.
func TestExpandDeterministicAcrossThreads(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 3) // skewed: threads collide on hot bins
	acsc := a.ToCSC()
	b := gen.RMAT(10, 8, gen.Graph500Params, 4)
	for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
		wantK, wantV := expandSnapshot(t, acsc, b, Options{Threads: 1, ForceLayout: layout})
		for _, threads := range []int{2, 3, 8} {
			gotK, gotV := expandSnapshot(t, acsc, b, Options{Threads: threads, ForceLayout: layout})
			for i := range wantK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("layout=%v threads=%d: tuple %d differs from sequential expand",
						layout, threads, i)
				}
			}
		}
	}
}

// TestMultiplyBitIdenticalAcrossThreads is the end-to-end determinism
// guarantee: identical CSR (values included, bit for bit) across thread
// counts, across repeated runs on a pooled workspace, and across the
// budgeted path's panel tiling.
func TestMultiplyBitIdenticalAcrossThreads(t *testing.T) {
	inputs := []struct {
		name string
		a    *matrix.CSR
		b    *matrix.CSR
		opt  Options
	}{
		{"ER", gen.ER(2048, 8, 1), gen.ER(2048, 8, 2), Options{}},
		{"RMAT-skewed", gen.RMAT(10, 16, gen.Graph500Params, 5), gen.RMAT(10, 16, gen.Graph500Params, 6), Options{}},
		// NBins=1 funnels everything into one oversized bin: the parallel
		// runs exercise the split-sort path against the sequential sort.
		{"single-bin-split-sort", gen.ER(1024, 8, 7), gen.ER(1024, 8, 8), Options{NBins: 1, L2CacheBytes: 4096}},
		{"budgeted", gen.ER(1024, 6, 9), gen.ER(1024, 6, 10), Options{MemoryBudgetBytes: 64 << 10}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			acsc := in.a.ToCSC()
			opt := in.opt
			opt.Threads = 1
			want, _, err := Multiply(acsc, in.b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 8} {
				opt.Threads = threads
				got, _, err := Multiply(acsc, in.b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !csrBitIdentical(want, got) {
					t.Fatalf("threads=%d: output not bit-identical to threads=1", threads)
				}
			}
			// Repeated runs on one pooled workspace.
			ws := NewWorkspace()
			opt.Workspace = ws
			for rep := 0; rep < 3; rep++ {
				for _, threads := range []int{1, 2, 8} {
					opt.Threads = threads
					got, _, err := Multiply(acsc, in.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !csrBitIdentical(want, got) {
						t.Fatalf("pooled rep=%d threads=%d: output drifted", rep, threads)
					}
				}
			}
		})
	}
}

// TestSqueezedVsWideEquivalent: the two layouts produce the same canonical
// CSR. Structure must match exactly; values to summation tolerance only —
// the layouts use different radix digit plans (11-bit vs byte), so tuples
// with equal keys may fold in a different order. (FuzzSqueezedVsWide holds
// integer-valued inputs, where order cannot matter, to exact equality.)
func TestSqueezedVsWideEquivalent(t *testing.T) {
	for _, in := range []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(1024, 8, 11), gen.ER(1024, 8, 12)},
		{"RMAT", gen.RMAT(9, 8, gen.Graph500Params, 13), gen.RMAT(9, 8, gen.Graph500Params, 14)},
	} {
		acsc := in.a.ToCSC()
		for _, threads := range []int{1, 4} {
			sq, stS, err := Multiply(acsc, in.b, Options{Threads: threads, ForceLayout: LayoutSqueezed})
			if err != nil {
				t.Fatal(err)
			}
			wide, stW, err := Multiply(acsc, in.b, Options{Threads: threads, ForceLayout: LayoutWide})
			if err != nil {
				t.Fatal(err)
			}
			if stS.Layout != LayoutSqueezed || stW.Layout != LayoutWide {
				t.Fatalf("%s: forced layouts not honored: %v / %v", in.name, stS.Layout, stW.Layout)
			}
			if !matrix.Equal(sq, wide, 1e-12) {
				t.Fatalf("%s threads=%d: squeezed and wide outputs differ", in.name, threads)
			}
		}
	}
}

// TestLayoutSelection pins the geometry rule: squeezed engages exactly when
// localRowBits + colBits ≤ 32, and PlanLayout agrees with the engine.
func TestLayoutSelection(t *testing.T) {
	// Small square: always squeezed.
	a := gen.ER(512, 4, 1)
	acsc := a.ToCSC()
	_, st, err := Multiply(acsc, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutSqueezed {
		t.Fatalf("small square picked %v, want squeezed", st.Layout)
	}
	if got := PlanLayout(a.NumRows, a.NumCols, st.Flops, Options{}); got != LayoutSqueezed {
		t.Fatalf("PlanLayout = %v, want squeezed", got)
	}

	// Wide B (2^30 columns) against a single bin's worth of rows: colBits=31
	// plus any local row bit exceeds 32 — must stay wide.
	rows := int32(5000)
	cols := int32(1) << 30
	co := &matrix.COO{NumRows: rows, NumCols: 64}
	bo := &matrix.COO{NumRows: 64, NumCols: cols}
	r := gen.NewRNG(2)
	for e := 0; e < 200; e++ {
		co.Row = append(co.Row, r.Intn(rows))
		co.Col = append(co.Col, r.Intn(64))
		co.Val = append(co.Val, r.Float64())
		bo.Row = append(bo.Row, r.Intn(64))
		bo.Col = append(bo.Col, r.Intn(cols))
		bo.Val = append(bo.Val, r.Float64())
	}
	aw, bw := co.ToCSR(), bo.ToCSR()
	_, stw, err := Multiply(aw.ToCSC(), bw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stw.Layout != LayoutWide {
		t.Fatalf("31-bit columns picked %v, want wide", stw.Layout)
	}
	if got := PlanLayout(aw.NumRows, bw.NumCols, stw.Flops, Options{}); got != LayoutWide {
		t.Fatalf("PlanLayout = %v, want wide", got)
	}
	// Forcing squeezed on an unsqueezable geometry must fall back, not
	// corrupt keys.
	ref := matrix.ReferenceMultiply(aw, bw)
	cf, stf, err := Multiply(aw.ToCSC(), bw, Options{ForceLayout: LayoutSqueezed})
	if err != nil {
		t.Fatal(err)
	}
	if stf.Layout != LayoutWide {
		t.Fatalf("unsqueezable force: layout %v, want wide fallback", stf.Layout)
	}
	if !matrix.Equal(ref, cf, 1e-9) {
		t.Fatal("forced-squeezed fallback product wrong")
	}
}

// TestPlanLayoutTracksBudget: a memory budget shrinks panels, which shrinks
// the bin count and widens rowsPerBin — PlanLayout must predict the layout
// of the geometry a budgeted run actually executes, not the unbudgeted one.
func TestPlanLayoutTracksBudget(t *testing.T) {
	rows := int32(1) << 20
	bCols := int32(1) << 17 // colBits = 18
	flops := int64(1) << 27 // unbudgeted: 2048 bins, rowShift 9 → squeezed
	if got := PlanLayout(rows, bCols, flops, Options{}); got != LayoutSqueezed {
		t.Fatalf("unbudgeted PlanLayout = %v, want squeezed", got)
	}
	// A tiny budget collapses each panel to ~2^10 tuples → 1 bin →
	// rowShift 20; 20+18 > 32 → the budgeted run is wide.
	budgeted := Options{MemoryBudgetBytes: 1 << 14}
	if got := PlanLayout(rows, bCols, flops, budgeted); got != LayoutWide {
		t.Fatalf("budgeted PlanLayout = %v, want wide", got)
	}
}

// TestBinGeometryTwoPassTrim pins planBinGeometry's two-pass rule: an auto
// geometry whose key the flop rule leaves past two LSD passes gets shorter
// bins until it is two passes (22 bits), unless the bins would outnumber
// min(2048, L2CacheBytes/LocalBinBytes) or fall below radix.FullDigitTuples;
// any other geometry, and an explicit NBins, is the flop rule's.
func TestBinGeometryTwoPassTrim(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rows      int32
		flops     int64 // the largest panel's
		colBits   uint
		opt       Options
		nbins     int
		rowShift  uint
		keyPasses int
	}{
		// er_lowcf (ER 2^16·d8): the flop rule's 64 bins of 10+16 = 26 bits.
		{"er_lowcf", 1 << 16, 1 << 22, 16, Options{}, 1024, 6, 2},
		// A shard_grid row band: 2 bins of 10+15 bits under the flop rule.
		{"shard-band", 2048, 131072, 15, Options{}, 16, 7, 2},
		// ER 2^13·d8, the bench's er-lowcf regimes: 8 bins of 10+13 bits.
		{"er-2^13", 1 << 13, 1 << 19, 13, Options{}, 16, 9, 2},
		// 23 column bits leave no row bit for a 22-bit key.
		{"colbits-23", 1 << 16, 1 << 22, 23, Options{}, 64, 10, 3},
		// Already two passes: ER 2^12·d8 (10+12) and R-MAT 2^13·16 (5+13).
		{"er-2^12", 1 << 12, 1 << 18, 12, Options{}, 4, 10, 2},
		{"rmat-2^13", 1 << 13, 19 << 20, 13, Options{}, 256, 5, 2},
		// The cap: 1 024 bins need L2CacheBytes/LocalBinBytes ≥ 1 024.
		{"local-bin-cap", 1 << 16, 1 << 22, 16, Options{LocalBinBytes: 2048}, 64, 10, 3},
		{"l2-cap", 1 << 16, 1 << 22, 16, Options{L2CacheBytes: 512 << 10}, 128, 9, 3},
		{"l2-2MiB", 1 << 16, 1 << 22, 16, Options{L2CacheBytes: 2 << 20}, 1024, 6, 2},
		{"explicit-nbins", 1 << 16, 1 << 22, 16, Options{NBins: 64}, 64, 10, 3},
		// A budgeted run sizes bins by its largest panel: er_lowcf under a 32 MiB
		// budget trims, under 16 MiB its 1 024 bins would hold 1 Ki tuples each.
		{"budget-32MiB", 1 << 16, 32 << 20 / tupleBytes, 16, Options{}, 1024, 6, 2},
		{"budget-16MiB", 1 << 16, 16 << 20 / tupleBytes, 16, Options{}, 16, 12, 3},
		// A hypersparse product: one bin of 5 000 tuples on 12+12 bits stays.
		{"hypersparse", 1 << 12, 5000, 12, Options{}, 1, 12, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := planBinGeometry(tc.rows, tc.flops, tc.colBits, tc.opt.withDefaults())
			if g.nbins != tc.nbins || g.rowShift != tc.rowShift {
				t.Fatalf("got %d bins, rowShift %d; want %d, %d", g.nbins, g.rowShift, tc.nbins, tc.rowShift)
			}
			perBin := int((tc.flops + int64(g.nbins) - 1) / int64(g.nbins))
			if p := radix.Passes(perBin, int(g.rowShift+tc.colBits)); p != tc.keyPasses {
				t.Fatalf("%d-bit keys over %d tuples plan %d passes, want %d", g.rowShift+tc.colBits, perBin, p, tc.keyPasses)
			}
		})
	}
}

// TestPlanLayoutAgreesOnTrimmedGeometry: on shapes the two-pass rule trims,
// single-shot and budgeted, the engine runs the bins planBinGeometry predicts
// and the layout PlanLayout and Key32Fits report.
func TestPlanLayoutAgreesOnTrimmedGeometry(t *testing.T) {
	a, b := gen.ERMatrix(13, 8, 1), gen.ERMatrix(13, 8, 2)
	acsc := a.ToCSC()
	for _, opt := range []Options{{Threads: 1}, {Threads: 2, MemoryBudgetBytes: 2 << 20}} {
		_, st, err := Multiply(acsc, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.NBins != 16 {
			t.Fatalf("budget %d: engine ran %d bins, want the trimmed 16", opt.MemoryBudgetBytes, st.NBins)
		}
		if got := PlanLayout(a.NumRows, b.NumCols, st.Flops, opt); got != st.Layout {
			t.Fatalf("budget %d: PlanLayout %v, engine %v", opt.MemoryBudgetBytes, got, st.Layout)
		}
		if !Key32Fits(a.NumRows, b.NumCols, st.Flops, opt) {
			t.Fatalf("budget %d: Key32Fits false on a squeezed run", opt.MemoryBudgetBytes)
		}
		_, stp, err := MultiplyPattern(acsc, b, opt)
		if err != nil || stp.NBins != st.NBins {
			t.Fatalf("budget %d: pattern entry ran %d bins (%v), float64 %d", opt.MemoryBudgetBytes, stp.NBins, err, st.NBins)
		}
	}
}

// TestPowerOfTwoBinGeometry: rowsPerBin is always a power of two and bins
// exactly tile the rows.
func TestPowerOfTwoBinGeometry(t *testing.T) {
	for _, rows := range []int32{1, 2, 3, 511, 512, 513, 5000, 1 << 20} {
		for _, nbins := range []int{0, 1, 2, 7, 64, 2048} {
			g := planBinGeometry(rows, int64(rows)*8, colBitsFor(rows), Options{NBins: nbins}.withDefaults())
			rpb := int64(1) << g.rowShift
			if rpb&(rpb-1) != 0 {
				t.Fatalf("rows=%d nbins=%d: rowsPerBin %d not a power of two", rows, nbins, rpb)
			}
			if int64(g.nbins)*rpb < int64(rows) {
				t.Fatalf("rows=%d nbins=%d: bins cover only %d rows", rows, nbins, int64(g.nbins)*rpb)
			}
			if int64(g.nbins-1)*rpb >= int64(rows) {
				t.Fatalf("rows=%d nbins=%d: last bin empty (%d bins of %d rows)", rows, nbins, g.nbins, rpb)
			}
		}
	}
}

// TestLayoutSteadyStateAllocs is the squeezed path's alloc regression gate:
// like the wide path, repeated Multiply through a pooled workspace at
// Threads=1 performs zero heap allocations — single-shot and budgeted.
func TestLayoutSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
		budget int64
	}{
		{"squeezed", LayoutSqueezed, 0},
		{"squeezed-budgeted", LayoutSqueezed, 32 << 10},
		{"wide", LayoutWide, 0},
		{"wide-budgeted", LayoutWide, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget, ForceLayout: tc.layout}
			if _, st, err := Multiply(a, b, opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
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
	// The same layout behind its own entry point, over (min, +) with a filter.
	t.Run("wide-minplus-budgeted", func(t *testing.T) {
		ws := NewWorkspace()
		opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: 32 << 10}
		alg := Algebra[float64]{
			Times: Elementwise(func(x, y float64) float64 { return x + y }),
			Plus:  func(x, y float64) float64 { return min(x, y) },
			Filter: func(seg []radix.Pair[float64], _ int32, _ uint) int64 {
				w := 0
				for _, p := range seg {
					if p.Key&1 == 0 { // even columns stay
						seg[w] = p
						w++
					}
				}
				return int64(w)
			},
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, _, err := MultiplyWide(a, a.Val, b, b.Val, alg, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state MultiplyWide allocated %.1f times per call, want 0", allocs)
		}
	})
}

// TestSplitSortMatchesReference: a run forced through the oversized-bin
// split (tiny L2 budget, parallel threads) still produces the reference
// product.
func TestSplitSortMatchesReference(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 21)
	b := gen.RMAT(10, 8, gen.Graph500Params, 22)
	want := matrix.ReferenceMultiply(a, b)
	for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
		got, _, err := Multiply(a.ToCSC(), b, Options{
			Threads: 8, NBins: 2, L2CacheBytes: 4096, ForceLayout: layout,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(want, got, 1e-9) {
			t.Fatalf("layout=%v: split-sort product differs from reference", layout)
		}
	}
}

// BenchmarkMultiply is the acceptance benchmark of the squeezed tuple
// pipeline: the low-cf ER regime (the paper's Fig. 7 sweet spot for
// PB-SpGEMM) on both layouts over a pooled workspace. The squeezed rows must
// come in ≥15% under the wide rows' ns/op.
func BenchmarkMultiply(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1).ToCSC()
	m := gen.ERMatrix(13, 8, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
	}{
		{"layout=squeezed", LayoutSqueezed},
		{"layout=wide", LayoutWide},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := NewWorkspace()
			opt := Options{Workspace: ws, ForceLayout: tc.layout}
			_, st, err := Multiply(a, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			if st.Layout != tc.layout {
				b.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
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
