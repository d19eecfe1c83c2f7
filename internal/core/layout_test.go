package core

import (
	"math"
	"slices"
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

// elementwise lifts a scalar ⊗ to Algebra.Times' chunk form.
func elementwise[V any](times func(a, b V) V) func(dst []V, a V, b []V) {
	return func(dst []V, a V, b []V) {
		for j := range dst {
			dst[j] = times(a, b[j])
		}
	}
}

// plusTimes is (+, ×) over float64 as an Algebra: the float64 product on the
// generic layout.
var plusTimes = Algebra[float64]{
	Times: elementwise(func(x, y float64) float64 { return x * y }),
	Plus:  func(x, y float64) float64 { return x + y },
}

// multiplyGeneric is Multiply on the generic layout: the float64 product
// through MultiplyGeneric over plusTimes, its value plane returned as the
// result's Val.
func multiplyGeneric(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	c, vals, st, err := MultiplyGeneric(a, a.Val, b, b.Val, plusTimes, opt)
	if err != nil {
		return nil, nil, err
	}
	c.Val = vals
	return c, st, nil
}

// narrowValue is the value types of the 8-byte narrow layout.
type narrowValue interface{ float32 | int32 }

// multiplyNarrow is the narrow product: MultiplyGeneric over the zero
// Algebra, (+, ×) on the typed kernels.
func multiplyNarrow[V narrowValue](a *matrix.CSC, av []V, b *matrix.CSR, bv []V, opt Options) (*matrix.CSR, []V, *Stats, error) {
	return MultiplyGeneric(a, av, b, bv, Algebra[V]{}, opt)
}

// multiplyFunc is the signature Multiply and multiplyGeneric share.
type multiplyFunc func(*matrix.CSC, *matrix.CSR, Options) (*matrix.CSR, *Stats, error)

// float64Layouts are the two float64 products, by the layout each runs.
//
// Test ids name the generic layout's float64 (+, ×) cases "wide", here and in
// the other case tables: they are the cases the wide layout (16-byte pairs on
// 64-bit keys, since removed) ran before the generic layout replaced it, and
// they keep their ids.
var float64Layouts = []struct {
	name   string
	layout Layout
	mul    multiplyFunc
}{{"squeezed", LayoutSqueezed, Multiply}, {"wide", LayoutGeneric, multiplyGeneric}}

// expandSnapshot drives the engine through planning and expand only, on the
// float64 product of the given layout (squeezed or generic), returning a copy
// of the pre-sort tuple buffer.
func expandSnapshot(t *testing.T, a *matrix.CSC, b *matrix.CSR, opt Options, layout Layout) ([]uint32, []float64) {
	t.Helper()
	opt = opt.withDefaults()
	ws := NewWorkspace()
	opt.Workspace = ws
	e, err := newEngine(a, b, opt, layout)
	if err != nil {
		t.Fatal(err)
	}
	alg := Algebra[float64]{}
	if layout == LayoutGeneric {
		alg = plusTimes
	}
	vals := valuesOf[float64](ws)
	vals.binding, _ = bindingOf(alg)
	vals.aVal, vals.bVal = a.Val, b.Val
	e.lay, e.tupleBytes = vals, SqueezedTupleBytes
	e.symbolic()
	e.planBins()
	e.planWhole()
	e.lay.growTuples(e, e.flops)
	e.expand()
	return slices.Clone(ws.tupleKeys[:e.flops]), slices.Clone(vals.tupleVals[:e.flops])
}

// TestExpandDeterministicAcrossThreads: with atomic cursors replaced by
// exclusive per-thread write offsets, the pre-sort tuple buffer — not just
// the sorted output — must be bit-identical at any thread count, in both
// layouts.
func TestExpandDeterministicAcrossThreads(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 3) // skewed: threads collide on hot bins
	acsc := a.ToCSC()
	b := gen.RMAT(10, 8, gen.Graph500Params, 4)
	for _, layout := range []Layout{LayoutSqueezed, LayoutGeneric} {
		wantK, wantV := expandSnapshot(t, acsc, b, Options{Threads: 1}, layout)
		for _, threads := range []int{2, 3, 8} {
			gotK, gotV := expandSnapshot(t, acsc, b, Options{Threads: threads}, layout)
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
// budgeted path's bin groups.
func TestMultiplyBitIdenticalAcrossThreads(t *testing.T) {
	inputs := []struct {
		name string
		a    *matrix.CSR
		b    *matrix.CSR
		opt  Options
	}{
		{"ER", gen.ER(2048, 8, 1), gen.ER(2048, 8, 2), Options{}},
		{"RMAT-skewed", gen.RMAT(10, 16, gen.Graph500Params, 5), gen.RMAT(10, 16, gen.Graph500Params, 6), Options{}},
		// NBins=1 funnels everything into one oversized bin, which the
		// parallel runs fold whole on one worker as the sequential run does.
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

// TestSqueezedVsWideEquivalent: the typed float64 layout and the generic one
// over (+, ×) — the batched kernel and + against function values — produce
// the same canonical CSR bit for bit, real values included: both fold equal
// keys in ascending k.
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
			sq, stS, err := Multiply(acsc, in.b, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			gen, stG, err := multiplyGeneric(acsc, in.b, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if stS.Layout != LayoutSqueezed || stG.Layout != LayoutGeneric || stG.NBins != stS.NBins {
				t.Fatalf("%s: layouts %v / %v in %d / %d bins, want squeezed / generic in the same bins",
					in.name, stS.Layout, stG.Layout, stS.NBins, stG.NBins)
			}
			if !csrBitIdentical(sq, gen) {
				t.Fatalf("%s threads=%d: squeezed and generic outputs differ", in.name, threads)
			}
		}
	}
}

// TestLayoutSelection pins the contract: Multiply runs the squeezed layout,
// adding bins until localRowBits + colBits ≤ 32 where it has to (past
// maxKey32Bins in groups; TestKey32PastMaxBinsRunsGroups covers those shapes).
func TestLayoutSelection(t *testing.T) {
	// Small square: the flop rule's key already fits.
	a := gen.ER(512, 4, 1)
	acsc := a.ToCSC()
	_, st, err := Multiply(acsc, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutSqueezed {
		t.Fatalf("small square picked %v, want squeezed", st.Layout)
	}

	// Wide B (2^30 columns: colBits = 30) against 5 000 rows, one bin by the
	// flop rule: the key needs 13 + 30 bits there, so bins shrink to 4 rows.
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
	cw, stw, err := Multiply(aw.ToCSC(), bw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stw.Layout != LayoutSqueezed || stw.NBins != 1250 {
		t.Fatalf("30-bit columns ran %v in %d bins, want squeezed in 1250", stw.Layout, stw.NBins)
	}
	if !matrix.Equal(matrix.ReferenceMultiply(aw, bw), cw, 1e-9) {
		t.Fatal("30-bit-column product wrong")
	}
}

// TestBinGeometryTracksBudget: the flop rule divides the product's 16-byte
// tuples by the smaller of L2CacheBytes and the memory budget, so only a
// budget under L2 moves the bins: 2^16 flops over 2^20 rows and 2^17 columns
// take one bin unbudgeted (the key32 cut then makes it 32 of 2^15 rows), and
// 64 bins of 2^14 rows under a 16 KiB budget; a budget past L2 changes
// nothing.
func TestBinGeometryTracksBudget(t *testing.T) {
	rows := int32(1) << 20
	colBits := colBitsFor(1 << 17) // 17
	const flops = 1 << 16
	for _, tc := range []struct {
		budget int64
		nbins  int
		shift  uint
	}{
		{0, 32, 15},
		{4 << 20, 32, 15},
		{1 << 14, 64, 14},
	} {
		opt := Options{MemoryBudgetBytes: tc.budget}.withDefaults()
		if g := planBinGeometry(rows, flops, colBits, SqueezedTupleBytes, opt); g.nbins != tc.nbins || g.rowShift != tc.shift {
			t.Fatalf("budget %d: %d bins, rowShift %d; want %d, %d", tc.budget, g.nbins, g.rowShift, tc.nbins, tc.shift)
		}
	}
}

// binCapProduct is a product of A (rows × 64) and B (64 × 2^22), 400
// entries each with small integer values: 22 column bits leave bins of at
// most 2^10 rows to a 32-bit key, so it needs ceil(rows / 2^10) of them.
func binCapProduct(rows int32) (*matrix.CSR, *matrix.CSR) {
	const n, inner = 1 << 22, 64
	r := gen.NewRNG(41)
	ao := &matrix.COO{NumRows: rows, NumCols: inner}
	bo := &matrix.COO{NumRows: inner, NumCols: n}
	for range 400 {
		ao.Row, ao.Col = append(ao.Row, r.Intn(rows)), append(ao.Col, r.Intn(inner))
		ao.Val = append(ao.Val, float64(1+r.Intn(3)))
		bo.Row, bo.Col = append(bo.Row, r.Intn(inner)), append(bo.Col, r.Intn(n))
		bo.Val = append(bo.Val, float64(1+r.Intn(3)))
	}
	return ao.ToCSR(), bo.ToCSR()
}

// localArenaBytes is the size of ws's propagation-blocking local bins, over
// every layout the tests below run.
func localArenaBytes(ws *Workspace) int64 {
	n := int64(len(ws.localKeys))*4 + int64(len(ws.f64.localVals))*8
	if l, ok := ws.vals.(*values[int32]); ok {
		n += int64(len(l.localVals)) * 4
	}
	return n
}

// TestKey32PastBinCap: a product whose 32-bit key needs more bins than the
// auto cap of 2 048 — 2^22 rows, so 4 096 bins of 2^10 rows, maxKey32Bins
// exactly — runs squeezed in 4 096 bins and equals Reference bit for bit, at
// one and two threads, single-shot and cut into bin groups. Its local bins stay
// within threads × maxKey32Bins × LocalBinBytes.
func TestKey32PastBinCap(t *testing.T) {
	a, b := binCapProduct(1 << 22)
	want := matrix.ReferenceMultiply(a, b)
	acsc := a.ToCSC()
	for _, budget := range []int64{0, 1 << 10} {
		for _, threads := range []int{1, 2} {
			ws := NewWorkspace()
			got, st, err := Multiply(acsc, b, Options{Threads: threads, MemoryBudgetBytes: budget, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutSqueezed || st.NBins != maxKey32Bins || (budget > 0) != (st.NGroups > 1) {
				t.Fatalf("budget=%d threads=%d: %v in %d bins, %d groups; want squeezed in 4096",
					budget, threads, st.Layout, st.NBins, st.NGroups)
			}
			if !csrBitIdentical(want, got) {
				t.Fatalf("budget=%d threads=%d: product differs from Reference", budget, threads)
			}
			if n, cap := localArenaBytes(ws), int64(threads*maxKey32Bins*DefaultLocalBinBytes); n > cap {
				t.Fatalf("budget=%d threads=%d: %d bytes of local bins, want at most %d", budget, threads, n, cap)
			}
		}
	}
}

// TestKey32PastMaxBinsRunsGroups: one row more than TestKey32PastBinCap's
// product and its 32-bit key needs 4 097 bins, past maxKey32Bins, so every
// entry runs its own key32 layout in groups of at most 4 096 bins, with at
// most that many bins' worth of local bins a thread — at one and two threads,
// single-shot and under a budget. Multiply equals Reference bit for bit,
// the narrow product its exact int32 sums, MultiplyPattern its support, and
// MultiplyGeneric over (min, +) and over a (⊕, ⊗) that neither associates
// nor commutes the ascending-k fold through them.
func TestKey32PastMaxBinsRunsGroups(t *testing.T) {
	a, b := binCapProduct(1<<22 + 1)
	want := matrix.ReferenceMultiply(a, b)
	acsc := a.ToCSC()
	aI, bI := make([]int32, len(acsc.Val)), make([]int32, len(b.Val))
	for i, v := range acsc.Val {
		aI[i] = int32(v)
	}
	for i, v := range b.Val {
		bI[i] = int32(v)
	}
	algebras := []struct {
		name        string
		times, plus func(x, y float64) float64
	}{
		{"minplus", func(x, y float64) float64 { return x + y }, func(x, y float64) float64 { return min(x, y) }},
		{"custom", func(x, y float64) float64 { return x - 0.5*y }, func(x, y float64) float64 { return 0.75*x + y }},
	}
	for _, budget := range []int64{0, 1 << 10} {
		for _, threads := range []int{1, 2} {
			opt := Options{Threads: threads, MemoryBudgetBytes: budget}
			check := func(entry string, layout Layout, st *Stats) {
				t.Helper()
				if st.Layout != layout || st.NBins != maxKey32Bins+1 || st.NGroups < 2 {
					t.Fatalf("%s budget=%d threads=%d: %v in %d bins, %d groups; want %v in 4097, ≥ 2 groups",
						entry, budget, threads, st.Layout, st.NBins, st.NGroups, layout)
				}
				if n, cap := localArenaBytes(opt.Workspace), int64(threads*maxKey32Bins*DefaultLocalBinBytes); n > cap {
					t.Fatalf("%s budget=%d threads=%d: %d bytes of local bins, want at most %d", entry, budget, threads, n, cap)
				}
			}
			opt.Workspace = NewWorkspace()
			got, st, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			check("Multiply", LayoutSqueezed, st)
			if !csrBitIdentical(want, got) {
				t.Fatalf("budget=%d threads=%d: Multiply differs from Reference", budget, threads)
			}
			opt.Workspace = NewWorkspace()
			c, vals, st, err := multiplyNarrow(acsc, aI, b, bI, opt)
			if err != nil {
				t.Fatal(err)
			}
			check("narrow", LayoutNarrow, st)
			if !csrSameStructure(want, c) {
				t.Fatalf("budget=%d threads=%d: the narrow product's support differs from Reference's", budget, threads)
			}
			for i, v := range want.Val {
				if vals[i] != int32(v) {
					t.Fatalf("budget=%d threads=%d: narrow value %d = %d, want %v", budget, threads, i, vals[i], v)
				}
			}
			opt.Workspace = NewWorkspace()
			p, st, err := MultiplyPattern(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			check("MultiplyPattern", LayoutPattern, st)
			if p.Val != nil || !csrSameStructure(want, p) {
				t.Fatalf("budget=%d threads=%d: MultiplyPattern's support differs from Reference's", budget, threads)
			}
			for _, alg := range algebras {
				opt.Workspace = NewWorkspace()
				ref, refVals := foldReferenceOver(a, a.Val, b, b.Val, alg.times, alg.plus)
				c, vals, st, err := MultiplyGeneric(acsc, acsc.Val, b, b.Val,
					Algebra[float64]{Times: elementwise(alg.times), Plus: alg.plus}, opt)
				if err != nil {
					t.Fatal(err)
				}
				check(alg.name, LayoutGeneric, st)
				c.Val, ref.Val = vals, refVals
				if !csrBitIdentical(ref, c) {
					t.Fatalf("%s budget=%d threads=%d: differs from the ascending-k fold", alg.name, budget, threads)
				}
			}
		}
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
		flops     int64
		colBits   uint
		opt       Options
		nbins     int
		rowShift  uint
		keyPasses int
		wide      bool // plan 16-byte tuples: the generic layout over a 12-byte value
	}{
		// er_lowcf (ER 2^16·d8): the flop rule's 64 bins of 10+16 = 26 bits.
		{"er_lowcf", 1 << 16, 1 << 22, 16, Options{}, 1024, 6, 2, false},
		// A shard_grid row band: 2 bins of 10+15 bits under the flop rule.
		{"shard-band", 2048, 131072, 15, Options{}, 16, 7, 2, false},
		// ER 2^13·d8, the bench's er-lowcf regimes: 8 bins of 10+13 bits.
		{"er-2^13", 1 << 13, 1 << 19, 13, Options{}, 16, 9, 2, false},
		// 23 column bits leave no row bit for a 22-bit key, and the flop
		// rule's 10 + 23 bits lose one row bit to the 32-bit key — on 12-byte
		// tuples and on 16-byte ones, whose flop rule gives 64 bins of 10+23.
		{"colbits-23", 1 << 16, 1 << 22, 23, Options{}, 128, 9, 3, false},
		{"colbits-23-wide", 1 << 16, 1 << 22, 23, Options{}, 128, 9, 3, true},
		// Already two passes: ER 2^12·d8 (10+12) and R-MAT 2^13·16 (5+13),
		// whose dense bins the dense cut then shortens to 3+13
		// (TestBinGeometryDenseCut).
		{"er-2^12", 1 << 12, 1 << 18, 12, Options{}, 4, 10, 2, false},
		{"rmat-2^13", 1 << 13, 19 << 20, 13, Options{}, 1024, 3, 2, false},
		// The cap: 1 024 bins need L2CacheBytes/LocalBinBytes ≥ 1 024.
		{"local-bin-cap", 1 << 16, 1 << 22, 16, Options{LocalBinBytes: 2048}, 64, 10, 3, false},
		{"l2-cap", 1 << 16, 1 << 22, 16, Options{L2CacheBytes: 512 << 10}, 128, 9, 3, false},
		{"l2-2MiB", 1 << 16, 1 << 22, 16, Options{L2CacheBytes: 2 << 20}, 1024, 6, 2, false},
		{"explicit-nbins", 1 << 16, 1 << 22, 16, Options{NBins: 64}, 64, 10, 3, false},
		// An explicit NBins too small for a 32-bit key is raised to fit it.
		{"explicit-nbins-raised", 1 << 13, 1 << 10, 20, Options{NBins: 1}, 2, 12, 4, false},
		// Past the auto cap: a few hundred tuples over 2^22 rows and 22-bit
		// columns need 4 096 bins of 2^10 rows, and one row more 4 097 — run
		// in two groups (planGroups).
		{"past-cap", 1 << 22, 300, 22, Options{}, 4096, 10, 4, false},
		{"past-max-bins", 1<<22 + 1, 300, 22, Options{}, 4097, 10, 4, false},
		// A budget past L2 leaves er_lowcf's geometry alone; one under it
		// feeds the flop rule (128 bins of 9+16 bits), which the trim still
		// cuts to 22 bits, under the cap of L2CacheBytes, not the budget.
		{"budget-32MiB", 1 << 16, 1 << 22, 16, Options{MemoryBudgetBytes: 32 << 20}, 1024, 6, 2, false},
		{"budget-16MiB", 1 << 16, 1 << 22, 16, Options{MemoryBudgetBytes: 16 << 20}, 1024, 6, 2, false},
		{"budget-512KiB", 1 << 16, 1 << 22, 16, Options{MemoryBudgetBytes: 512 << 10}, 1024, 6, 2, false},
		// A hypersparse product: one bin of 5 000 tuples on 12+12 bits stays.
		{"hypersparse", 1 << 12, 5000, 12, Options{}, 1, 12, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := int64(SqueezedTupleBytes)
			if tc.wide {
				tb = 16
			}
			g := planBinGeometry(tc.rows, tc.flops, tc.colBits, tb, tc.opt.withDefaults())
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

// TestBinGeometryDenseCut pins planBinGeometry's dense cut: an auto geometry
// whose mean bin folds dense gets shorter bins, at most
// min(2048, L2CacheBytes/LocalBinBytes) of them, until the fold's working set
// (accumulator, bitmap, the bin's tuples) fits L2CacheBytes, and each cut
// bin still folds dense. rmat_skew's product (R-MAT 2^13·d16 squared: 8 192
// rows, 19 Mflop, 13 column bits) gets 1 024 bins of 3+13 bits on its
// squeezed layout, where the flop rule gave 256 of 5+13 (a 2 MiB
// accumulator); the pattern layout, whose accumulator is the bitmap, keeps
// 256, and so does a generic layout of 1-byte values, while one of 12-byte
// values (16-byte tuples) cuts to 1 024 too; er_lowcf's sparse bins and an
// explicit NBins keep theirs.
func TestBinGeometryDenseCut(t *testing.T) {
	const rows, flops, colBits = 1 << 13, 19 << 20, 13
	for _, tc := range []struct {
		name       string
		rows       int32
		flops      int64
		colBits    uint
		tupleBytes int64
		opt        Options
		nbins      int
		rowShift   uint
	}{
		{"rmat_skew", rows, flops, colBits, SqueezedTupleBytes, Options{}, 1024, 3},
		{"rmat_skew-narrow", rows, flops, colBits, NarrowTupleBytes, Options{}, 512, 4},
		{"rmat_skew-pattern", rows, flops, colBits, PatternTupleBytes, Options{}, 256, 5},
		{"rmat_skew-generic-bool", rows, flops, colBits, 5, Options{}, 256, 5},
		{"rmat_skew-wide", rows, flops, colBits, 16, Options{}, 1024, 3},
		{"rmat_skew-l2-2MiB", rows, flops, colBits, SqueezedTupleBytes, Options{L2CacheBytes: 2 << 20}, 512, 4},
		{"er_lowcf", 1 << 16, 1 << 22, 16, SqueezedTupleBytes, Options{}, 1024, 6},
		{"explicit-nbins", rows, flops, colBits, SqueezedTupleBytes, Options{NBins: 256}, 256, 5},
		// The cap: 512 bins at 2 KiB local bins, or at a 512 KiB L2 (where
		// the flop rule already gives 512 and a 1 MiB accumulator).
		{"cap-local-bin", rows, flops, colBits, SqueezedTupleBytes, Options{LocalBinBytes: 2048}, 512, 4},
		{"cap-l2", rows, flops, colBits, SqueezedTupleBytes, Options{L2CacheBytes: 512 << 10}, 512, 4},
		// Both rules on one shape, in order: at an 8 MiB L2 the flop rule's
		// 512 bins of 7+16 bits plan three passes, the trim takes 1 024 of
		// 6+16 (two passes, now dense: 32 MiB of accumulator), and the cut
		// stops at the 2 048-bin cap. Cut first, the 23-bit key would not
		// fold dense and the trim alone would leave 1 024.
		{"trim-then-cut", 1 << 16, 1 << 28, 16, SqueezedTupleBytes, Options{L2CacheBytes: 8 << 20}, 2048, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt.withDefaults()
			g := planBinGeometry(tc.rows, tc.flops, tc.colBits, tc.tupleBytes, opt)
			if g.nbins != tc.nbins || g.rowShift != tc.rowShift {
				t.Fatalf("got %d bins, rowShift %d; want %d, %d", g.nbins, g.rowShift, tc.nbins, tc.rowShift)
			}
			if g.nbins > min(2048, opt.L2CacheBytes/opt.LocalBinBytes) && tc.opt.NBins == 0 {
				t.Fatalf("%d bins pass the cap", g.nbins)
			}
			perBin, kb, valBytes := (tc.flops+int64(g.nbins)-1)/int64(g.nbins), g.rowShift+tc.colBits, tc.tupleBytes-4
			if tc.name != "er_lowcf" && !denseFold(perBin, kb, valBytes, int64(opt.L2CacheBytes)) {
				t.Fatalf("the mean bin of %d tuples on %d bits no longer folds dense", perBin, kb)
			}
		})
	}
}

// TestDenseCutMatchesReference runs a product whose geometry the dense cut
// moves — R-MAT 2^10·d16 squared at a 64 KiB L2 and 64-byte local bins: 128
// bins become 512, single-shot and under an 8 MiB budget (bin groups) alike —
// and holds it bit for bit to the ascending-k oracle, at 1 and 2 threads, and
// to the run at the flop rule's bin count.
func TestDenseCutMatchesReference(t *testing.T) {
	a := gen.RMAT(10, 16, gen.Graph500Params, 7)
	acsc := a.ToCSC()
	for _, tc := range []struct {
		budget         int64
		flopRule, bins int
	}{{0, 128, 512}, {8 << 20, 128, 512}} {
		want := FoldReference(a, a)
		for _, threads := range []int{1, 2} {
			opt := Options{Threads: threads, L2CacheBytes: 64 << 10, LocalBinBytes: 64, MemoryBudgetBytes: tc.budget}
			got, st, err := Multiply(acsc, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.NBins != tc.bins || (tc.budget > 0) != (st.NGroups > 1) {
				t.Fatalf("budget=%d threads=%d: %d bins in %d groups; want %d", tc.budget, threads, st.NBins, st.NGroups, tc.bins)
			}
			if !csrBitIdentical(want, got) {
				t.Fatalf("budget=%d threads=%d: product differs from the ascending-k oracle", tc.budget, threads)
			}
			opt.NBins = tc.flopRule
			if old, _, err := Multiply(acsc, a, opt); err != nil || !csrBitIdentical(old, got) {
				t.Fatalf("budget=%d threads=%d: differs from the flop rule's %d bins (%v)", tc.budget, threads, tc.flopRule, err)
			}
		}
	}
}

// TestEntriesAgreeOnTrimmedGeometry: on shapes the two-pass rule trims,
// single-shot and budgeted, the engine runs the bins planBinGeometry predicts,
// and so does every entry point whose key the trim already fits.
func TestEntriesAgreeOnTrimmedGeometry(t *testing.T) {
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
		_, stg, err := multiplyGeneric(acsc, b, opt)
		if err != nil || stg.NBins != st.NBins {
			t.Fatalf("budget %d: generic entry ran %d bins (%v), squeezed %d", opt.MemoryBudgetBytes, stg.NBins, err, st.NBins)
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
			g := planBinGeometry(rows, int64(rows)*8, colBitsFor(rows), SqueezedTupleBytes, Options{NBins: nbins}.withDefaults())
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

// TestLayoutSteadyStateAllocs is the value layout's alloc regression gate:
// repeated Multiply and MultiplyGeneric, under every binding, through a
// pooled workspace at Threads=1 perform zero heap allocations — single-shot
// and budgeted.
func TestLayoutSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
		mul    multiplyFunc
		budget int64
	}{
		{"squeezed", LayoutSqueezed, Multiply, 0},
		{"squeezed-budgeted", LayoutSqueezed, Multiply, 32 << 10},
		{"wide", LayoutGeneric, multiplyGeneric, 0},
		{"wide-budgeted", LayoutGeneric, multiplyGeneric, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget}
			if _, st, err := tc.mul(a, b, opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
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
	// Every other binding of the value layout behind MultiplyGeneric: (min, +)
	// over float64, typed (+, ×) over float32 and int32, and a function
	// binding over a value that is no number.
	af, bf := narrowPlanes[float32](a, b)
	ai, bi := narrowPlanes[int32](a, b)
	ab, bb := make([]bool, len(af)), make([]bool, len(bf))
	or := func(x, y bool) bool { return x || y }
	orAnd := Algebra[bool]{Times: elementwise(func(x, y bool) bool { return x && y }), Plus: or}
	minPlus := Algebra[float64]{
		Times: elementwise(func(x, y float64) float64 { return x + y }),
		Plus:  func(x, y float64) float64 { return min(x, y) },
	}
	for _, tc := range []struct {
		name   string
		layout Layout
		run    func(opt Options) (*Stats, error)
	}{
		{"wide-minplus", LayoutGeneric, func(opt Options) (*Stats, error) {
			_, _, st, err := MultiplyGeneric(a, a.Val, b, b.Val, minPlus, opt)
			return st, err
		}},
		{"narrow-f32", LayoutNarrow, func(opt Options) (*Stats, error) {
			_, _, st, err := multiplyNarrow(a, af, b, bf, opt)
			return st, err
		}},
		{"narrow-i32", LayoutNarrow, func(opt Options) (*Stats, error) {
			_, _, st, err := multiplyNarrow(a, ai, b, bi, opt)
			return st, err
		}},
		{"generic-bool", LayoutGeneric, func(opt Options) (*Stats, error) {
			_, _, st, err := MultiplyGeneric(a, ab, b, bb, orAnd, opt)
			return st, err
		}},
	} {
		t.Run(tc.name+"-budgeted", func(t *testing.T) {
			opt := Options{Threads: 1, Workspace: NewWorkspace(), MemoryBudgetBytes: 32 << 10}
			if st, err := tc.run(opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := tc.run(opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocated %.1f times per call, want 0", tc.name, allocs)
			}
		})
	}
}

// TestSplitSortMatchesReference: a run with oversized bins (tiny L2 budget,
// two bins) on eight workers, each bin folded whole, still produces the
// reference product.
func TestSplitSortMatchesReference(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 21)
	b := gen.RMAT(10, 8, gen.Graph500Params, 22)
	want := matrix.ReferenceMultiply(a, b)
	for _, l := range float64Layouts {
		got, _, err := l.mul(a.ToCSC(), b, Options{Threads: 8, NBins: 2, L2CacheBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(want, got, 1e-9) {
			t.Fatalf("layout=%v: oversized-bin product differs from reference", l.layout)
		}
	}
}

// BenchmarkMultiply is the acceptance benchmark of the squeezed tuple
// pipeline: the low-cf ER regime (the paper's Fig. 7 sweet spot for
// PB-SpGEMM) over a pooled workspace, on the typed float64 layout and on the
// generic one over (+, ×) — what a function-valued ⊗ and ⊕ cost.
func BenchmarkMultiply(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1).ToCSC()
	m := gen.ERMatrix(13, 8, 2)
	for _, l := range float64Layouts {
		b.Run("layout="+l.layout.String(), func(b *testing.B) {
			ws := NewWorkspace()
			opt := Options{Workspace: ws}
			_, st, err := l.mul(a, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			if st.Layout != l.layout {
				b.Fatalf("layout = %v, want %v", st.Layout, l.layout)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := l.mul(a, m, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(st.Flops)/sec/1e9, "GFLOPS")
		})
	}
}
