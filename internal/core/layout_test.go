package core

import (
	"math"
	"testing"
	"unsafe"

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

// multiplyWide is Multiply on the wide layout: the float64 product through
// MultiplyWide over PlusTimes, 16-byte tuples in the flop rule's bins, its value
// plane returned as the result's Val.
func multiplyWide(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	c, vals, st, err := MultiplyWide(a, a.Val, b, b.Val, PlusTimes, opt)
	if err != nil {
		return nil, nil, err
	}
	c.Val = vals
	return c, st, nil
}

// multiplyFunc is the signature Multiply and multiplyWide share.
type multiplyFunc func(*matrix.CSC, *matrix.CSR, Options) (*matrix.CSR, *Stats, error)

// float64Layouts are the two float64 products, by the layout each runs.
var float64Layouts = []struct {
	layout Layout
	mul    multiplyFunc
}{{LayoutSqueezed, Multiply}, {LayoutWide, multiplyWide}}

// expandSnapshot drives the engine through planning and expand only, on the
// float64 product of the given layout (squeezed or wide), returning a copy of
// the pre-sort tuple buffer in a layout-independent (key, value) form.
func expandSnapshot(t *testing.T, a *matrix.CSC, b *matrix.CSR, opt Options, layout Layout) ([]uint64, []float64) {
	t.Helper()
	opt = opt.withDefaults()
	ws := NewWorkspace()
	opt.Workspace = ws
	e, err := newEngine(a, b, opt, layout)
	if err != nil {
		t.Fatal(err)
	}
	if layout == LayoutWide {
		l := pairsOf[float64](ws)
		l.aVal, l.bVal, l.alg = a.Val, b.Val, PlusTimes
		e.lay = l
	} else {
		l := &ws.kvF64
		l.aVal, l.bVal = a.Val, b.Val
		e.lay = l
	}
	e.symbolic()
	e.planBins()
	e.planWhole()
	e.lay.growTuples(e, e.flops)
	e.expand()
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

// TestSqueezedVsWideEquivalent: the two layouts produce the same canonical
// CSR bit for bit, real values included: both fold equal keys in ascending k.
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
			wide, stW, err := multiplyWide(acsc, in.b, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if stS.Layout != LayoutSqueezed || stW.Layout != LayoutWide {
				t.Fatalf("%s: layouts %v / %v, want squeezed / wide", in.name, stS.Layout, stW.Layout)
			}
			if !csrBitIdentical(sq, wide) {
				t.Fatalf("%s threads=%d: squeezed and wide outputs differ", in.name, threads)
			}
		}
	}
}

// TestLayoutSelection pins the contract: Multiply runs the squeezed layout,
// adding bins until localRowBits + colBits ≤ 32 where it has to (within
// maxKey32Bins; TestKey32PastMaxBinsRunsWide covers the shapes past it).
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

// TestBinGeometryTracksBudget: the flop rule divides the product's wide
// tuples by the smaller of L2CacheBytes and the memory budget, so only a
// budget under L2 moves the bins: 2^16 flops over 2^20 rows and 2^17 columns
// take one bin unbudgeted (the key32 cut then makes it 32 of 2^15 rows, and a
// wide key keeps it), and 64 bins of 2^14 rows under a 16 KiB budget, on
// either key; a budget past L2 changes nothing.
func TestBinGeometryTracksBudget(t *testing.T) {
	rows := int32(1) << 20
	colBits := colBitsFor(1 << 17) // 17
	const flops = 1 << 16
	for _, tc := range []struct {
		budget         int64
		key32, wide    int
		shift32, shift uint
	}{
		{0, 32, 1, 15, 20},
		{4 << 20, 32, 1, 15, 20},
		{1 << 14, 64, 64, 14, 14},
	} {
		opt := Options{MemoryBudgetBytes: tc.budget}.withDefaults()
		if g := planBinGeometry(rows, flops, colBits, 32, SqueezedTupleBytes, opt); g.nbins != tc.key32 || g.rowShift != tc.shift32 {
			t.Fatalf("budget %d, key32: %d bins, rowShift %d; want %d, %d", tc.budget, g.nbins, g.rowShift, tc.key32, tc.shift32)
		}
		if g := planBinGeometry(rows, flops, colBits, 64, WideTupleBytes, opt); g.nbins != tc.wide || g.rowShift != tc.shift {
			t.Fatalf("budget %d, wide: %d bins, rowShift %d; want %d, %d", tc.budget, g.nbins, g.rowShift, tc.wide, tc.shift)
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
	n := int64(len(ws.localKeys))*4 + int64(len(ws.kvF64.localVals))*8
	if l, ok := ws.kvNarrow.(*kv[int32]); ok {
		n += int64(len(l.localVals)) * 4
	}
	switch l := ws.wide.(type) {
	case *pairs[float64]:
		n += int64(len(l.locals)) * int64(unsafe.Sizeof(l.locals[0]))
	case *pairs[int32]:
		n += int64(len(l.locals)) * int64(unsafe.Sizeof(l.locals[0]))
	case *pairs[struct{}]:
		n += int64(len(l.locals)) * int64(unsafe.Sizeof(l.locals[0]))
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

// TestKey32PastMaxBinsRunsWide: one row more than TestKey32PastBinCap's
// product and its 32-bit key would need 4 097 bins, past maxKey32Bins, so
// all three typed entries run the wide layout in the flop rule's one bin,
// with one bin's worth of local bins a thread: Multiply equals Reference bit
// for bit, MultiplyNarrow its exact int32 sums, MultiplyPattern its support.
func TestKey32PastMaxBinsRunsWide(t *testing.T) {
	if MultiplyLayout(1<<22, 1<<22) != LayoutSqueezed || MultiplyLayout(1<<22+1, 1<<22) != LayoutWide {
		t.Fatal("MultiplyLayout: the cap is not at 4 096 bins")
	}
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
	for _, threads := range []int{1, 2} {
		check := func(entry string, st *Stats, ws *Workspace) {
			t.Helper()
			if st.Layout != LayoutWide || st.NBins != 1 {
				t.Fatalf("%s threads=%d: %v in %d bins; want wide in 1", entry, threads, st.Layout, st.NBins)
			}
			if n, cap := localArenaBytes(ws), int64(threads*DefaultLocalBinBytes); n > cap {
				t.Fatalf("%s threads=%d: %d bytes of local bins, want at most %d", entry, threads, n, cap)
			}
		}
		ws := NewWorkspace()
		got, st, err := Multiply(acsc, b, Options{Threads: threads, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		check("Multiply", st, ws)
		if !csrBitIdentical(want, got) {
			t.Fatalf("threads=%d: Multiply differs from Reference", threads)
		}
		ws = NewWorkspace()
		c, vals, st, err := MultiplyNarrow(acsc, aI, b, bI, Options{Threads: threads, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		check("MultiplyNarrow", st, ws)
		if !csrSameStructure(want, c) {
			t.Fatalf("threads=%d: MultiplyNarrow's support differs from Reference's", threads)
		}
		for i, v := range want.Val {
			if vals[i] != int32(v) {
				t.Fatalf("threads=%d: MultiplyNarrow value %d = %d, want %v", threads, i, vals[i], v)
			}
		}
		ws = NewWorkspace()
		p, st, err := MultiplyPattern(acsc, b, Options{Threads: threads, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		check("MultiplyPattern", st, ws)
		if p.Val != nil || !csrSameStructure(want, p) {
			t.Fatalf("threads=%d: MultiplyPattern's support differs from Reference's", threads)
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
		wide      bool // plan 64-bit keys (MultiplyWide)
	}{
		// er_lowcf (ER 2^16·d8): the flop rule's 64 bins of 10+16 = 26 bits.
		{"er_lowcf", 1 << 16, 1 << 22, 16, Options{}, 1024, 6, 2, false},
		// A shard_grid row band: 2 bins of 10+15 bits under the flop rule.
		{"shard-band", 2048, 131072, 15, Options{}, 16, 7, 2, false},
		// ER 2^13·d8, the bench's er-lowcf regimes: 8 bins of 10+13 bits.
		{"er-2^13", 1 << 13, 1 << 19, 13, Options{}, 16, 9, 2, false},
		// 23 column bits leave no row bit for a 22-bit key, and the flop
		// rule's 10 + 23 bits lose one row bit to the 32-bit key; a 64-bit key
		// keeps the flop rule.
		{"colbits-23", 1 << 16, 1 << 22, 23, Options{}, 128, 9, 3, false},
		{"colbits-23-wide", 1 << 16, 1 << 22, 23, Options{}, 64, 10, 3, true},
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
		// columns need 4 096 bins of 2^10 rows.
		{"past-cap", 1 << 22, 300, 22, Options{}, 4096, 10, 4, false},
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
			keyBits, tb := uint(32), int64(SqueezedTupleBytes)
			if tc.wide {
				keyBits, tb = 64, WideTupleBytes
			}
			g := planBinGeometry(tc.rows, tc.flops, tc.colBits, keyBits, tb, tc.opt.withDefaults())
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
// 256; er_lowcf's sparse bins and an explicit NBins keep theirs.
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
		{"rmat_skew-wide", rows, flops, colBits, WideTupleBytes, Options{}, 1024, 3},
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
			keyBits, opt := uint(32), tc.opt.withDefaults()
			if tc.tupleBytes == WideTupleBytes {
				keyBits = 64
			}
			g := planBinGeometry(tc.rows, tc.flops, tc.colBits, keyBits, tc.tupleBytes, opt)
			if g.nbins != tc.nbins || g.rowShift != tc.rowShift {
				t.Fatalf("got %d bins, rowShift %d; want %d, %d", g.nbins, g.rowShift, tc.nbins, tc.rowShift)
			}
			if g.nbins > min(2048, opt.L2CacheBytes/opt.LocalBinBytes) && tc.opt.NBins == 0 {
				t.Fatalf("%d bins pass the cap", g.nbins)
			}
			perBin, kb, valBytes := (tc.flops+int64(g.nbins)-1)/int64(g.nbins), g.rowShift+tc.colBits, tc.tupleBytes-int64(keyBits/8)
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
		_, stw, err := multiplyWide(acsc, b, opt)
		if err != nil || stw.NBins != st.NBins {
			t.Fatalf("budget %d: wide entry ran %d bins (%v), squeezed %d", opt.MemoryBudgetBytes, stw.NBins, err, st.NBins)
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
			g := planBinGeometry(rows, int64(rows)*8, colBitsFor(rows), 32, SqueezedTupleBytes, Options{NBins: nbins}.withDefaults())
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
		mul    multiplyFunc
		budget int64
	}{
		{"squeezed", LayoutSqueezed, Multiply, 0},
		{"squeezed-budgeted", LayoutSqueezed, Multiply, 32 << 10},
		{"wide", LayoutWide, multiplyWide, 0},
		{"wide-budgeted", LayoutWide, multiplyWide, 32 << 10},
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
	// The same layout behind its own entry point, over (min, +).
	t.Run("wide-minplus-budgeted", func(t *testing.T) {
		ws := NewWorkspace()
		opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: 32 << 10}
		alg := Algebra[float64]{
			Times: Elementwise(func(x, y float64) float64 { return x + y }),
			Plus:  func(x, y float64) float64 { return min(x, y) },
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
// PB-SpGEMM) on both layouts over a pooled workspace. The squeezed rows must
// come in ≥15% under the wide rows' ns/op.
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
