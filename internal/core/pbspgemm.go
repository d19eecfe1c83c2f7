// Package core implements PB-SpGEMM, the paper's contribution: an
// outer-product sparse matrix-matrix multiplication that saturates memory
// bandwidth using propagation blocking (Algorithm 2).
//
// The multiplication C = A*B runs in four phases:
//
//  1. Symbolic (Algorithm 3): count flop = Σ_i nnz(A(:,i))·nnz(B(i,:)) by
//     streaming only the pointer arrays of A (CSC) and B (CSR), choose the
//     number of bins so each global bin fits the L2 cache during sorting, and
//     allocate the expanded-tuple storage in one shot.
//  2. Expand: each thread walks a flop-balanced contiguous range of columns
//     of A, forms outer products A(:,i)·B(i,:), and propagation-blocks the
//     resulting (rowid, colid, value) tuples: tuples are appended to small
//     thread-private local bins (default 1 KiB, Fig. 5) that are flushed to
//     their global bin with a bulk copy when full. Local bins hold a multiple
//     of 16 tuples and each worker's first flush into a bin lands its cursor
//     on a 16-tuple boundary (flushSpan), so every later flush moves whole
//     64-byte lines to a line-aligned destination.
//  3. Sort and compress (Sections III-D, III-E): each global bin is sorted
//     on its packed keys localRow<<colBits|colid and equal keys are summed,
//     bin by bin under a dynamic schedule. Because local row ids are small
//     the key fits 4 bytes for almost every matrix, and the two steps run
//     fused, as one of internal/radix's two key32 kernels — or their two
//     counterparts for the wide layout's 64-bit keys, which also serve any
//     value type and any (⊕, ⊗): MultiplyWide (fused.go).
//  4. Assemble: bins cover disjoint, ordered row ranges, so concatenating
//     the folded bins is already canonical CSR order.
//
// Two execution-engine extensions go beyond the paper's single-shot design:
//
//   - A Workspace pools the tuple buffer, local bins and all plan arrays
//     across calls (grow-only), so repeated multiplications run with zero
//     steady-state heap allocations instead of re-allocating the
//     flops×16-byte expansion every call.
//   - Options.MemoryBudgetBytes tiles A's columns into panels whose expanded
//     tuples fit the budget; each panel runs expand-sort-compress into
//     per-bin folded runs, and after the last panel each bin's runs are
//     gathered in panel order and folded by the same kernels into the same
//     canonical CSR the single-shot path produces (panels.go). This serves
//     products whose flops×16 expansion exceeds RAM.
package core

import (
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
	"pbspgemm/internal/radix"
	"pbspgemm/internal/simd"
)

// DefaultLocalBinBytes is measured, not the paper's 512 (Section V-A): 1 KiB
// expands in 0.86 / 0.90 / 0.98 / 0.94 of 512 B's time on the squeezed / wide /
// narrow / pattern layouts (`experiments fig6a`, ER 2^16·d4, one thread, widths
// taking turns), ER 2^16·d8 squeezed in 30.4 ms for 35.3 and R-MAT 2^13·d16 in
// 54.3 for 74.8 (pattern 20.6 for 28.1). 2 KiB reads 0.95–1.00 of 1 KiB, no gain on wide.
const DefaultLocalBinBytes = 1024

// DefaultL2CacheBytes is the sort-phase cache budget per bin, as the paper
// uses its machines' L2 (1 MiB on Skylake, 512 KiB/2 cores on POWER9). Bins
// start at flops × 16 B per budget; over LocalBinBytes it caps the two-pass
// trim (1 024 bins at the defaults; planBinGeometry, `experiments fig6b`).
const DefaultL2CacheBytes = 1 << 20

// Layout identifies the expanded-tuple representation of a run. The paper's
// Section III-D key squeezing observes that the packed key localRow<<colBits
// | col fits 4 bytes whenever localRowBits + colBits ≤ 32; because bins make
// localRow small, that holds for almost every real matrix, and the engine
// then stores tuples as parallel arrays (uint32 keys + float64 values, 12
// bytes per tuple) instead of 16-byte radix.Pair[float64]s — cutting the
// traffic of the two dominant phases by a quarter.
type Layout int8

const (
	// LayoutAuto (the zero value) picks per run: squeezed when the key
	// geometry allows, wide otherwise.
	LayoutAuto Layout = iota
	// LayoutWide is the 16-byte AoS layout: []radix.Pair[V] (u64 key + value;
	// f64 for Multiply, a semiring's element type for MultiplyWide).
	LayoutWide
	// LayoutSqueezed is the 12-byte SoA layout: []uint32 keys + []float64
	// values. Selected automatically when localRowBits + colBits ≤ 32.
	LayoutSqueezed
	// LayoutNarrow is the 8-byte SoA layout: []uint32 keys + a 4-byte value
	// plane (float32 or int32). Only the MultiplyNarrow entry runs it, and
	// only when localRowBits + colBits ≤ 32.
	LayoutNarrow
	// LayoutPattern is the 4-byte key-only layout of structural products:
	// tuples are bare []uint32 keys, folding is deduplication, and the result
	// CSR has no Val array. Only the MultiplyPattern entry runs it, under the
	// same ≤ 32-bit key requirement.
	LayoutPattern
)

func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutWide:
		return "wide"
	case LayoutSqueezed:
		return "squeezed"
	case LayoutNarrow:
		return "narrow"
	case LayoutPattern:
		return "pattern"
	}
	return fmt.Sprintf("Layout(%d)", int8(l))
}

// Per-tuple byte costs of the layouts — the b of the paper's traffic model
// (Eq. 4 / Table III), now per run.
const (
	// WideTupleBytes is radix.Pair[V] for any V of at most 8 bytes: an 8-byte
	// packed key plus the (padded) value.
	WideTupleBytes = 16
	// SqueezedTupleBytes is the parallel-array layout: a 4-byte key plus an
	// 8-byte value.
	SqueezedTupleBytes = 12
	// NarrowTupleBytes is the narrow parallel-array layout: a 4-byte key plus
	// a 4-byte value.
	NarrowTupleBytes = 8
	// PatternTupleBytes is the key-only layout: the 4-byte key is the tuple.
	PatternTupleBytes = 4
)

// TupleBytes returns the per-tuple byte cost of a concrete layout (0 for
// LayoutAuto, which is a request, not a layout).
func (l Layout) TupleBytes() int64 {
	switch l {
	case LayoutWide:
		return WideTupleBytes
	case LayoutSqueezed:
		return SqueezedTupleBytes
	case LayoutNarrow:
		return NarrowTupleBytes
	case LayoutPattern:
		return PatternTupleBytes
	}
	return 0
}

// tupleBytes is the conservative (wide) per-tuple cost used wherever sizing
// must not depend on the layout decision itself: panel tiling against
// MemoryBudgetBytes and the bin-count derivation both use it, so the bin
// geometry — and therefore the squeeze decision it feeds — is identical for
// both layouts.
const tupleBytes = WideTupleBytes

// Options tunes PB-SpGEMM. The zero value selects the paper's defaults.
type Options struct {
	// NBins forces the number of global bins, as given; 0 derives it from
	// flop and L2CacheBytes (Algorithm 3 line 6), then shortens bins whose key
	// the LSD would sort in more than two passes (planBinGeometry).
	NBins int
	// LocalBinBytes is the requested width of each thread-private local bin;
	// 0 means DefaultLocalBinBytes (1024). The capacity actually used is the
	// request in tuples of the run's layout rounded down to a multiple of 16
	// tuples, and never below 16 (LocalBinTuples): flushes then move whole
	// cache lines. 1024 B gives 64 wide, 80 squeezed, 128 narrow and 256
	// pattern tuples; any request under one line of keys runs at 16.
	LocalBinBytes int
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// L2CacheBytes is the per-bin cache budget used to auto-size NBins;
	// 0 means DefaultL2CacheBytes.
	L2CacheBytes int
	// MemoryBudgetBytes caps the expanded-tuple buffer — the flops×16-byte
	// working set that dominates PB-SpGEMM's footprint. When positive and
	// smaller than flops×16, A's columns are tiled into panels whose
	// expanded tuples each fit the budget, and the per-panel folded runs are
	// gathered per bin and folded once more into the final CSR. 0 means
	// unlimited (one panel, the paper's single-shot algorithm). The budget is
	// best-effort: one column of A is the smallest schedulable unit, so a
	// single column whose outer product alone exceeds the budget still runs
	// as its own panel.
	MemoryBudgetBytes int64
	// Workspace, if non-nil, supplies grow-only pooled buffers reused across
	// calls (zero steady-state allocations when Threads == 1). The returned
	// CSR and Stats then alias workspace memory and are invalidated by the
	// next call using the same workspace.
	Workspace *Workspace
	// Cancel, if non-nil, is polled at phase boundaries and inside the long
	// phase loops: per column chunk in expand (every ~cancelPollTuples
	// expanded tuples), per task in the fuse phase, per bin in assemble and
	// the budgeted gather. A non-nil return aborts the multiplication with that
	// error; workers drain to the next poll before the join, so no goroutines
	// leak. The public API wires context.Context.Err here.
	Cancel func() error
	// ForceLayout pins the expanded-tuple layout, for tests, ablations and
	// benchmarks. LayoutAuto (the zero value) squeezes whenever
	// localRowBits + colBits ≤ 32; LayoutWide always runs 16-byte tuples;
	// LayoutSqueezed is honored only when the key geometry allows it and
	// falls back to wide otherwise (keys are never truncated). Stats.Layout
	// reports the layout actually used.
	ForceLayout Layout
}

func (o Options) withDefaults() Options {
	if o.LocalBinBytes <= 0 {
		o.LocalBinBytes = DefaultLocalBinBytes
	}
	if o.L2CacheBytes <= 0 {
		o.L2CacheBytes = DefaultL2CacheBytes
	}
	o.Threads = par.DefaultThreads(o.Threads)
	return o
}

// Stats records per-phase timings and the paper's per-phase traffic model
// (Table III), from which sustained bandwidth per phase is derived.
type Stats struct {
	Symbolic, Expand, Assemble time.Duration
	// Fuse is the fused sort+fold phase: the paper's sort and compress
	// phases, run as one pass per bin while the bin is in cache (fused.go).
	Fuse time.Duration
	// Merge is the copying a memory budget costs: appending each panel's
	// folded runs to the run arena, then grouping and gathering them per bin.
	// Nonzero only on budgeted (multi-panel) runs; their final fold over the
	// gathered bins is charged to Fuse like a panel's.
	Merge time.Duration
	Total time.Duration

	Flops int64 // multiplications performed (nnz of C-hat)
	NNZC  int64 // nonzeros in the final C
	NBins int   // global bins used
	// NPanels is the number of column panels the run was tiled into
	// (1 unless MemoryBudgetBytes forced tiling).
	NPanels int
	CF      float64

	// Layout is the expanded-tuple layout the run used: LayoutWide (16-byte
	// radix.Pair[V]s), or one of the three u32-key layouts available whenever
	// localRowBits+colBits ≤ 32 — LayoutSqueezed (12 bytes, float64 values),
	// LayoutNarrow (8 bytes, float32/int32 values; MultiplyNarrow) and
	// LayoutPattern (4 bytes, keys only; MultiplyPattern).
	Layout Layout
	// TupleBytes is the per-tuple byte cost of that layout (16, 12, 8 or 4) —
	// the b entering the traffic model below.
	TupleBytes int64
	// Kernel names the inner-loop kernel set of the build, internal/simd's
	// Level(): "batched", "batched+goamd64v3", or "purego" (the scalar loops)
	// on builds with that tag.
	Kernel string

	// SortOwned counts the bins the fuse phase folded under its parallel
	// schedule (multi-threaded runs; summed over panels on budgeted runs).
	// SortStolen is always 0: every bin folds whole on the worker that takes
	// it, so no work is stolen. Both stay for the benchmark's
	// core.sort_stolen_share.
	SortOwned, SortStolen int64

	// Traffic model (bytes), following Eq. 4 / Table III with the per-run
	// tuple cost: expand reads both inputs (16 B per stored nonzero) and
	// writes flop tuples at TupleBytes each. The fuse phase then charges
	// FusedBytes = TupleBytes·flop — the single read-back of the expanded
	// tuples — because folding happens in the sort's cache-resident last
	// pass and the compress write never goes to memory as a separate sweep.
	ExpandBytes, FusedBytes int64
}

// ExpandGBs returns the expand-phase sustained bandwidth in GB/s.
func (s *Stats) ExpandGBs() float64 { return gbs(s.ExpandBytes, s.Expand) }

// FuseGBs returns the fused sort+fold phase's sustained bandwidth in GB/s.
func (s *Stats) FuseGBs() float64 { return gbs(s.FusedBytes, s.Fuse) }

// OverallGBs returns total modeled traffic divided by total time.
func (s *Stats) OverallGBs() float64 {
	return gbs(s.ExpandBytes+s.FusedBytes, s.Total)
}

// GFLOPS returns the end-to-end performance in the paper's metric.
func (s *Stats) GFLOPS() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Total.Seconds() / 1e9
}

func gbs(bytes int64, d time.Duration) float64 {
	sec := d.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(bytes) / sec / 1e9
}

// engine is the per-call execution state. It lives inside the Workspace so
// that the parallel paths' closures (which capture the engine pointer) never
// force a per-call heap allocation, and so the Threads==1 paths touch no
// allocator at all in steady state.
type engine struct {
	a      *matrix.CSC
	b      *matrix.CSR
	opt    Options
	ws     *Workspace
	shared bool // ws is caller-owned: pool result CSR and Stats too

	flops         int64
	maxPanelFlops int64 // largest single panel's flop count
	nbins         int
	npanels       int
	rowShift      uint   // bin = row>>rowShift (shift/mask replaces division; rows per bin = 1<<rowShift)
	rowMask       uint32 // localRow = row&rowMask
	colBits       uint
	want          Layout     // layout the entry point requested (Auto for Multiply)
	layout        Layout     // concrete layout planBins resolved for this run
	key32         bool       // layout packs keys into uint32 (everything but wide)
	lay           layoutOps  // per-layout element accesses (layout.go)
	f64Out        *[]float64 // the out plane of the float64 layout bindLayout bound for Multiply, else nil
	tupleBytes    int64      // per-tuple cost of layout (16/12/8/4)
	wideBytes     int64      // size of a wide tuple: 16, more when MultiplyWide's V is over 8 bytes
	localCap      int32      // tuples per thread-private local bin
	ntFlush       bool       // stream bin flushes with non-temporal stores (per panel)
	scratchStride int64      // per-worker stride into the sort scratch planes

	// Fault containment and sub-phase cancellation (fault.go). phase names
	// the running phase for error annotation (written between phases on the
	// calling goroutine, read by workers it spawns). The abort latch is
	// plain uint32s driven with sync/atomic functions — the engine is reset
	// by struct assignment, so it can hold no sync/atomic struct types.
	phase      string
	abortLatch uint32 // writer election for abortErr
	abortSeen  uint32 // stop flag the sub-phase polls read
	abortErr   error  // first abort reason; read after a phase join

	st *Stats
}

// Multiply computes C = A*B with PB-SpGEMM. A must be CSC and B CSR, the
// layouts the outer product streams naturally (Algorithm 2 takes exactly
// these). The returned stats are always non-nil. When opt.Workspace is set,
// the returned CSR and Stats alias workspace memory (Clone the CSR to keep
// it past the next call).
func Multiply(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutAuto)
	if err != nil {
		return nil, nil, err
	}
	return e.runContained()
}

// newEngine validates the shapes and binds the workspace-resident engine for
// one run requesting the given layout (LayoutAuto for the float64 entries;
// the pattern/narrow entries pass their layout). opt must already have
// defaults applied.
func newEngine(a *matrix.CSC, b *matrix.CSR, opt Options, want Layout) (*engine, error) {
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("core: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	ws := opt.Workspace
	shared := ws != nil
	if !shared {
		ws = &Workspace{}
	} else if ws.poisoned {
		// The previous run on this workspace panicked mid-phase; rather than
		// validate every pooled plane against partial state, discard them all
		// and regrow. Correct runs never set the flag, so the steady-state
		// zero-allocation property is untouched.
		*ws = Workspace{}
	}
	e := &ws.eng
	*e = engine{a: a, b: b, opt: opt, ws: ws, shared: shared, want: want, wideBytes: WideTupleBytes}
	if shared {
		ws.stats = Stats{}
		e.st = &ws.stats
	} else {
		e.st = &Stats{}
	}
	return e, nil
}

// finish is every entry point's epilogue: capture the stats pointer and drop
// the references that would let a long-lived workspace pin input matrices.
func (e *engine) finish(c *matrix.CSR, err error) (*matrix.CSR, *Stats, error) {
	st := e.st
	e.dropRefs()
	if err != nil {
		return nil, nil, err
	}
	return c, st, nil
}

// dropRefs clears what would let a pooled workspace pin the caller's inputs
// (and a semiring's closures) between runs.
func (e *engine) dropRefs() {
	e.a, e.b, e.st, e.lay, e.f64Out = nil, nil, nil, nil, nil
	e.ws.kvF64.aVal, e.ws.kvF64.bVal = nil, nil
	if e.ws.wide != nil {
		e.ws.wide.unbind()
	}
}

// canceled is the phase-boundary check: the abort latch first (a sub-phase
// poll or a contained worker panic may have fired mid-phase), then the
// caller's cancellation hook. Cancellation errors come back wrapped with the
// interrupted phase (and %w, so sentinel matching survives); a latched
// *par.PanicError passes through untouched.
func (e *engine) canceled() error {
	if err := e.abortedErr(); err != nil {
		return e.wrapCancel(err)
	}
	if e.opt.Cancel == nil {
		return nil
	}
	if err := e.opt.Cancel(); err != nil {
		return e.wrapCancel(err)
	}
	return nil
}

func (e *engine) run() (*matrix.CSR, error) {
	totalStart := time.Now()

	t0 := time.Now()
	e.phase = "plan"
	e.st.Kernel = simd.Level()
	e.symbolic()
	e.planPanels()
	if err := e.planBins(); err != nil {
		return nil, err
	}
	e.bindLayout()
	e.st.Symbolic = time.Since(t0)
	e.st.Flops = e.flops
	e.st.NBins = e.nbins
	e.st.NPanels = e.npanels
	e.st.Layout = e.layout
	e.st.TupleBytes = e.tupleBytes

	if e.flops == 0 {
		c := e.newResult(0)
		e.st.Total = time.Since(totalStart)
		return c, nil
	}
	if err := e.canceled(); err != nil {
		return nil, err
	}

	var c *matrix.CSR
	var err error
	if e.npanels == 1 {
		c, err = e.runSingleShot()
	} else {
		c, err = e.runBudgeted()
	}
	if err != nil {
		return nil, err
	}
	// Count nnz(C) from the row pointers, not c.NNZ(): pattern results carry
	// no Val array, which NNZ() measures.
	e.st.NNZC = c.RowPtr[c.NumRows]
	// ExpandBytes counts the loads and stores the expand loop executes —
	// STREAM's own methodology, so pct_of_stream compares like with like.
	// Each stored nonzero of A is loaded once and held across its inner
	// loop (the float64 layouts stream index+value at the 16-byte COO cost,
	// narrow reads 4-byte values and pattern only the indices; sized from
	// the index arrays because narrow/pattern may pass nil Val). Each FLOP
	// then loads one B element (ColIdx plus the layout's value width) and
	// stores one tuple. This is partition-invariant: band splitting re-runs
	// the same loads, so any physical re-fetch of B between bands shows up
	// in measured time (and thus GB/s), not in counted bytes.
	inBytes := int64(matrix.BytesPerTuple)
	bRead := int64(12) // ColIdx (4 B) + float64 value (8 B)
	switch e.layout {
	case LayoutNarrow:
		inBytes = NarrowTupleBytes
		bRead = 8 // ColIdx + float32 value
	case LayoutPattern:
		inBytes = PatternTupleBytes
		bRead = 4 // ColIdx only
	}
	e.st.ExpandBytes = inBytes*int64(len(e.a.RowIdx)) + (bRead+e.tupleBytes)*e.flops
	e.st.FusedBytes = e.tupleBytes * e.flops
	if e.st.NNZC > 0 {
		e.st.CF = float64(e.st.Flops) / float64(e.st.NNZC)
	}
	e.st.Total = time.Since(totalStart)
	return c, nil
}

// runSingleShot is the paper's algorithm: one panel covering all of A's
// columns, folded and assembled from the tuple buffer.
func (e *engine) runSingleShot() (*matrix.CSR, error) {
	t0 := time.Now()
	e.panelPlan(0, int(e.a.NumCols))
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteGrow, 0)
	}
	e.lay.growTuples(e, e.flops)
	e.st.Symbolic += time.Since(t0)

	t0 = time.Now()
	e.phase = "expand"
	e.expandPanel(0)
	e.st.Expand = time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	return e.foldAndAssemble()
}

// foldBins sorts and folds every bin ws.binStart lays out over the tuple
// planes, leaving each bin's folded prefix in place and its length in
// ws.binOut, and per-row output counts in rowCounts when that is non-nil, in
// one pass per bin (fused.go).
func (e *engine) foldBins(rowCounts []int64) error {
	t0 := time.Now()
	e.phase = "sort"
	e.runSortPhase(matrix.Grow(&e.ws.binOut, e.nbins), rowCounts)
	e.st.Fuse += time.Since(t0)
	return e.canceled()
}

// foldAndAssemble is the tail every run ends in: fold the bins of the tuple
// planes — one panel's expansion, or a budgeted run's gathered runs — with
// row tallies, and assemble the folded prefixes into the result.
func (e *engine) foldAndAssemble() (*matrix.CSR, error) {
	if err := e.foldBins(matrix.GrowInt64Zero(&e.ws.rowCounts, int(e.a.NumRows)+1)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	e.phase = "assemble"
	c := e.assemble()
	e.st.Assemble = time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	return c, nil
}

// symbolic implements Algorithm 3's flop count: per-column flops from the
// pointer arrays only, plus the packed-key geometry.
func (e *engine) symbolic() {
	k := int(e.a.NumCols)
	cf := matrix.Grow(&e.ws.colFlops, k)
	if e.opt.Threads == 1 {
		for i := 0; i < k; i++ {
			cf[i] = e.a.ColNNZ(int32(i)) * e.b.RowNNZ(int32(i))
		}
	} else {
		a, b := e.a, e.b
		par.ForRanges(k, e.opt.Threads, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				cf[i] = a.ColNNZ(int32(i)) * b.RowNNZ(int32(i))
			}
		})
	}
	var flops int64
	for _, f := range cf {
		flops += f
	}
	e.flops = flops
	e.colBits = colBitsFor(e.b.NumCols)
}

// planPanels tiles A's columns into contiguous panels whose expanded-tuple
// footprint (panel flops × 16 bytes) fits MemoryBudgetBytes. With no budget
// (or a budget the whole product fits) there is exactly one panel.
func (e *engine) planPanels() {
	k := int(e.a.NumCols)
	cf := e.ws.colFlops
	ps := e.ws.panelStart[:0]
	ps = append(ps, 0)
	budgetTuples := e.opt.MemoryBudgetBytes / e.wideBytes
	if e.opt.MemoryBudgetBytes <= 0 || e.flops <= budgetTuples {
		ps = append(ps, k)
		e.maxPanelFlops = e.flops
	} else {
		var cur, maxf int64
		for i := 0; i < k; i++ {
			if cur > 0 && cur+cf[i] > budgetTuples {
				ps = append(ps, i)
				maxf, cur = max(maxf, cur), 0
			}
			cur += cf[i]
		}
		ps = append(ps, k)
		e.maxPanelFlops = max(maxf, cur)
	}
	e.ws.panelStart = ps
	e.npanels = len(ps) - 1
}

// binGeometry is the bin shape planBinGeometry derives: nbins bins of
// 1<<rowShift rows each, exactly tiling [0, rows).
type binGeometry struct {
	nbins    int
	rowShift uint
}

// planBinGeometry derives the bin geometry (Algorithm 3 line 6) from the
// largest panel's flop count, so each panel's bins fit the L2 budget during
// sorting. rowsPerBin is rounded up to a power of two so the expand hot loop
// derives bin and local row with shift/mask instead of an integer division
// per flop; nbins is recomputed so bins still exactly tile the rows. Sizing
// always uses the wide 16-byte tuple cost, so the geometry (and the squeeze
// decision it feeds) never depends on the layout it produces.
//
// An auto key the LSD sorts in more than two passes (radix.Passes at the mean
// bin) then gets the largest rowShift at which it is two passes (22 bits), if
// that leaves at most min(2048, L2CacheBytes/LocalBinBytes) bins, so expand's
// local bins stay L2-resident (Fig. 5), of radix.FullDigitTuples each; else
// the flop rule stands and no layout changes. It is Section V-A's in-cache bin
// made exact for the sort that runs: er_lowcf (ER 2^16·d8) goes from 64 bins
// of 26-bit keys (three passes over ~2.3 MB, past a 2 MiB L2) to 1 024 of 22,
// fuse 60–62 → 43–46 ms for 3 ms more expand (`experiments fig6b`). Bytes
// never depend on it. Key32Fits, PlanLayout and the planner read this rule.
func planBinGeometry(rows int32, maxPanelFlops int64, colBits uint, opt Options) binGeometry {
	// The auto value is capped at 2048: the paper uses 1K-2K bins in
	// practice (Section V-A) because each thread also keeps one local bin
	// per global bin, and nbins*LocalBinBytes must stay within the cache for
	// the expand phase to stream (Fig. 5). Callers can override with an
	// explicit NBins.
	const maxAutoBins = 2048
	nbins := int64(opt.NBins)
	if nbins <= 0 {
		nbins = min((maxPanelFlops*tupleBytes+int64(opt.L2CacheBytes)-1)/int64(opt.L2CacheBytes), maxAutoBins)
	}
	if nbins = max(nbins, 1); rows <= 0 {
		return binGeometry{nbins: int(nbins)}
	}
	shift := bits.Len64(uint64((int64(rows)+nbins-1)/nbins - 1)) // ceil(log2(rows per bin))
	binsAt := func(s int) int64 { return (int64(rows) + 1<<s - 1) >> s }
	perBin := func(s int) int { return int((maxPanelFlops + binsAt(s) - 1) / binsAt(s)) }
	if opt.NBins <= 0 && radix.Passes(perBin(shift), shift+int(colBits)) > 2 {
		maxBins := int64(min(maxAutoBins, opt.L2CacheBytes/opt.LocalBinBytes))
		for s := shift - 1; s >= 0 && binsAt(s) <= maxBins && perBin(s) >= radix.FullDigitTuples; s-- {
			if radix.Passes(perBin(s), s+int(colBits)) <= 2 {
				shift = s
				break
			}
		}
	}
	return binGeometry{nbins: int(binsAt(shift)), rowShift: uint(shift)}
}

// planBins fixes the run's bin geometry and tuple layout. Bins are fixed row
// ranges of A, identical across panels, which is what lets per-panel runs
// merge bin-by-bin. The error is non-nil only when the entry point demanded
// a 32-bit-key layout (pattern/narrow) the geometry cannot deliver.
func (e *engine) planBins() error {
	g := planBinGeometry(e.a.NumRows, e.maxPanelFlops, e.colBits, e.opt)
	e.nbins = g.nbins
	e.rowShift = g.rowShift
	e.rowMask = uint32(int64(1)<<g.rowShift - 1)

	// Section III-D key squeezing: the in-bin local row id needs rowShift
	// bits, so the packed key fits a uint32 — and the tuple any of the split
	// key32 layouts — whenever rowShift + colBits ≤ 32.
	fits := g.rowShift+e.colBits <= 32
	switch e.want {
	case LayoutPattern, LayoutNarrow:
		// The entry point is the layout: values are 4 bytes or absent, so
		// there is no wide fallback to widen into — a too-wide key is an
		// error, not a silent layout change.
		if !fits {
			return fmt.Errorf("core: %s layout needs localRowBits+colBits ≤ 32, got %d+%d: %w",
				e.want, g.rowShift, e.colBits, ErrKeyWidth)
		}
		e.layout = e.want
	case LayoutWide:
		e.layout = LayoutWide // MultiplyWide: any key fits
	default:
		e.layout = LayoutWide
		if fits {
			e.layout = LayoutSqueezed
		}
		switch e.opt.ForceLayout {
		case LayoutWide:
			e.layout = LayoutWide
		case LayoutSqueezed:
			// Best-effort: already squeezed when the geometry allows; a key
			// that needs more than 32 bits keeps the wide layout rather than
			// corrupt.
		case LayoutNarrow, LayoutPattern:
			return fmt.Errorf("core: ForceLayout %v requires the MultiplyNarrow/MultiplyPattern entry point", e.opt.ForceLayout)
		}
	}
	e.key32 = e.layout != LayoutWide
	e.tupleBytes = e.layout.TupleBytes()
	if !e.key32 {
		e.tupleBytes = e.wideBytes
	}

	e.localCap = LocalBinTuples(e.opt.LocalBinBytes, e.tupleBytes)
	return nil
}

// flushAlign is the flush granularity in tuples: 16 four-byte keys are one
// 64-byte cache line, 16 eight-byte values two, 16 wide pairs four.
const flushAlign = 16

// LocalBinTuples is the local-bin capacity a LocalBinBytes request gets at
// the given per-tuple cost: rounded down to a multiple of flushAlign, and up
// to flushAlign when the request is smaller than that.
func LocalBinTuples(localBinBytes int, tupleBytes int64) int32 {
	return int32(max(int64(localBinBytes)/tupleBytes&^(flushAlign-1), flushAlign))
}

// flushPhase is where in its local buffer a bin whose next tuple goes to
// global offset cursor keeps that tuple: the cursor's offset within its
// flushAlign group.
func flushPhase(cursor int64) int32 { return int32(cursor & (flushAlign - 1)) }

// flushSpan is the flush schedule of one (worker, bin) pair, shared by every
// layout. A local bin fills from flushPhase(cursor) instead of from 0
// (expandPanel seeds lens so), and a flush moves its tuples
// [phase, lens[bin]) to the worker's cursor: src is their offset in the
// worker's local planes, dst the cursor, n the count (0 when nothing is
// pending). The first flush of a full bin is therefore short by phase and
// leaves the cursor on a flushAlign boundary, where it stays — the capacity is
// a multiple of flushAlign — so only the first flush and the final drain of a
// reserved range move partial lines. Where flushes cut never changes the
// order of tuples in a bin.
func flushSpan(bin int32, lens []int32, cursors []int64, capT int32) (src, dst, n int64) {
	dst = cursors[bin]
	phase := flushPhase(dst)
	n = int64(lens[bin] - phase)
	cursors[bin] = dst + n
	lens[bin] = flushPhase(dst + n)
	return int64(bin)*int64(capT) + int64(phase), dst, n
}

// flushPlane copies one plane of a flushSpan to the global arena (the paper's
// MemCopy); dst starts at the span's destination and src is exactly the span.
// With nt set (see expandPanel) the whole lines go out as non-temporal stores,
// which then fill write-combining buffers completely and skip the
// read-for-ownership a plain store to a cold line pays; expandPanel fences
// each worker after its last flush. Otherwise copy(), plus a prefetch of the
// bin's next destination while the local bin refills (no-op on purego and
// non-amd64 builds). Same bytes either way. nt is only ever set for a T that
// holds no pointers: the NT copy writes no GC barriers (pairs.flat).
func flushPlane[T any](dst, src []T, nt bool) {
	if len(src) == 0 {
		return
	}
	bytes := len(src) * int(unsafe.Sizeof(src[0]))
	if nt && simd.HasNT {
		simd.NTCopyBytes(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), bytes)
		return
	}
	copy(dst, src)
	if len(dst) >= 2*len(src) {
		simd.PrefetchRangeT0(unsafe.Pointer(&dst[len(src)]), bytes)
	}
}

// Key32Fits reports whether the bin geometry Multiply-family entries would
// derive for a product (rows of A, columns of B, total flops, opt's bin and
// budget settings) packs its keys into 32 bits — the gate for the squeezed,
// narrow and pattern layouts. internal/semiring uses it to decide whether a
// Boolean/float32/int32 multiplication can dispatch onto the fast path.
func Key32Fits(rows, bCols int32, flops int64, opt Options) bool {
	opt = opt.withDefaults()
	// A memory budget tiles the run into panels of ≈ budget/16 tuples and
	// the bin geometry follows the largest panel (planPanels packs columns
	// greedily to just under the budget; the one-column floor can exceed it
	// only when a single outer product does). Mirror that here so the
	// predicted layout matches the one a budgeted run executes.
	maxPanelFlops := flops
	if budgetTuples := opt.MemoryBudgetBytes / tupleBytes; opt.MemoryBudgetBytes > 0 && maxPanelFlops > budgetTuples {
		maxPanelFlops = max(budgetTuples, 1)
	}
	colBits := colBitsFor(bCols)
	return planBinGeometry(rows, maxPanelFlops, colBits, opt).rowShift+colBits <= 32
}

// PlanLayout reports the tuple layout Multiply (the float64 entry) would
// pick for a product with rows output rows (rows of A), bCols output columns
// (columns of B) and the given total flop count, under opt's bin and budget
// settings. The public Auto planner uses it to model PB-SpGEMM's per-run
// traffic at 12 or 16 bytes per tuple before choosing an algorithm family;
// the pattern/narrow entries run at their own cost whenever Key32Fits.
func PlanLayout(rows, bCols int32, flops int64, opt Options) Layout {
	if opt.ForceLayout == LayoutWide {
		return LayoutWide
	}
	if Key32Fits(rows, bCols, flops, opt) {
		return LayoutSqueezed
	}
	return LayoutWide
}

// colBitsFor is the packed-key width of a column id for a B with bCols
// columns: the bits of the largest id, bCols-1 (at least 1 bit). A
// power-of-two bCols wastes no bit, which halves the key space the dense fold
// addresses and can spare the sparse one a pass.
func colBitsFor(bCols int32) uint {
	return uint(max(bits.Len32(uint32(max(bCols, 1)-1)), 1))
}

// panelPlan computes per-bin flop counts for columns [lo, hi) of A with one
// pass over the panel's nonzeros, leaving the exclusive prefix in
// ws.binStart and flop-balanced thread boundaries (relative to lo) in
// ws.colBounds. The per-thread × per-bin counts are exact — each worker's
// expand range is fixed by colBounds — so they are converted in place into
// exclusive write offsets: thread t's tuples for bin b land at
// binStart[b] + Σ_{t'<t} count(t', b). Expand then needs no atomic cursors,
// flushes are plain copies into pre-reserved ranges, and the tuple order in
// every bin is the sequential column order at any thread count
// (contention-free, deterministic expand). Returns the panel's flop count.
func (e *engine) panelPlan(lo, hi int) int64 {
	nbins := e.nbins
	threads := e.opt.Threads
	binFlops := matrix.GrowInt64Zero(&e.ws.binFlops, nbins)
	e.ws.colBounds = par.BalancedBoundariesInto(
		e.ws.colFlops[lo:hi], threads, matrix.Grow(&e.ws.colBounds, threads+1))
	var pt []int64
	if threads == 1 {
		e.countPanelBins(lo, hi, binFlops)
	} else {
		pt = matrix.GrowInt64Zero(&e.ws.perThread, threads*nbins)
		a, b, shift := e.a, e.b, e.rowShift
		bounds := e.ws.colBounds
		par.ParallelRun(threads, func(t int) {
			local := pt[t*nbins : (t+1)*nbins]
			for i := lo + bounds[t]; i < lo+bounds[t+1]; i++ {
				bRow := b.RowNNZ(int32(i))
				if bRow == 0 {
					continue
				}
				for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
					local[uint32(a.RowIdx[p])>>shift] += bRow
				}
			}
		})
		for t := 0; t < threads; t++ {
			local := pt[t*nbins : (t+1)*nbins]
			for bin, c := range local {
				binFlops[bin] += c
			}
		}
	}
	total := par.PrefixSum(binFlops, matrix.Grow(&e.ws.binStart, nbins+1))
	// Exclusive per-thread write offsets, computed in place over pt (the
	// counts are consumed as they are replaced). ws.cursors is scratch here;
	// with one thread it is reset below to binStart and used directly as the
	// single worker's cursor array.
	cursors := matrix.Grow(&e.ws.cursors, nbins)
	copy(cursors, e.ws.binStart[:nbins])
	for t := 0; t < threads && pt != nil; t++ {
		local := pt[t*nbins : (t+1)*nbins]
		for bin, c := range local {
			local[bin] = cursors[bin]
			cursors[bin] += c
		}
	}
	copy(cursors, e.ws.binStart[:nbins])
	return total
}

func (e *engine) countPanelBins(lo, hi int, binFlops []int64) {
	a, b, shift := e.a, e.b, e.rowShift
	for i := lo; i < hi; i++ {
		bRow := b.RowNNZ(int32(i))
		if bRow == 0 {
			continue
		}
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			binFlops[uint32(a.RowIdx[p])>>shift] += bRow
		}
	}
}

// expandPanel runs the outer-product expansion with propagation blocking
// (Algorithm 2 lines 5–18) over the panel starting at column lo, writing
// into the tuple buffer at the offsets ws.binStart laid out. Global-bin
// space was exactly pre-sized by panelPlan, and each worker owns an
// exclusive pre-reserved range per bin (its row of ws.perThread), so a flush
// is a plain bulk copy (the paper's MemCopy) with no atomic reservation —
// contention-free, and the resulting tuple order is identical at any thread
// count.
func (e *engine) expandPanel(lo int) {
	threads := e.opt.Threads
	nbins := e.nbins
	localTuples := int64(threads) * int64(nbins) * int64(e.localCap)
	e.lay.growLocals(e, localTuples)
	lens := matrix.Grow(&e.ws.localLens, threads*nbins)
	// Every local bin starts filling at its cursor's phase (flushSpan).
	// panelPlan left the lone worker's cursors in ws.cursors and the workers'
	// rows of exclusive offsets in ws.perThread.
	cursors := e.ws.cursors
	if threads > 1 {
		cursors = e.ws.perThread
	}
	for i, c := range cursors[:threads*nbins] {
		lens[i] = flushPhase(c)
	}
	// Flush with non-temporal stores only when this panel's tuple arena
	// clearly outgrows the LLC: that is where a plain store's
	// read-for-ownership is real DRAM traffic whole-line NT stores avoid
	// (36 ms against copy()'s 48 on the 228 MB arena of BENCHMARK.json's
	// rmat_skew product, 18 against 19 on er_lowcf's 50 MB). On smaller
	// panels the two are a wash and the lines stay cached for the sort's
	// read-back, so those keep copy().
	e.ntFlush = simd.HasNT && e.ws.binStart[nbins]*e.tupleBytes >= ntMinArenaBytes
	if threads == 1 {
		e.lay.expandRange(e, 0, lo, cursors)
		e.fenceFlushes()
	} else {
		par.ParallelRun(threads, func(t int) {
			// containWorker (not the par-level recover) so a panicking
			// expand worker latches the abort and its siblings bail at
			// their next sub-phase poll instead of finishing their ranges.
			defer e.containWorker(t)
			e.lay.expandRange(e, t, lo, cursors[t*nbins:(t+1)*nbins])
			// NT flush stores are weakly ordered: fence before the join so
			// the sort phase (any worker) sees every tuple.
			e.fenceFlushes()
		})
	}
}

// fenceFlushes orders this worker's non-temporal flush stores before the
// phase join. No-op when the NT flush path is off.
func (e *engine) fenceFlushes() {
	if e.ntFlush {
		simd.StoreFence()
	}
}

// ntMinArenaBytes is the smallest per-panel tuple arena that flushes with
// non-temporal stores (expandPanel). 32 MiB sits safely above typical LLCs;
// a variable (not const) so tests can force the NT path on small inputs.
var ntMinArenaBytes int64 = 32 << 20

// assemble builds canonical CSR from the folded bins of the tuple planes
// (each bin's prefix starts at its ws.binStart offset). Bins hold disjoint
// ascending row ranges and each bin is sorted, so folded tuples are already
// in global CSR order; assembly is two prefix sums plus one parallel
// unpacking copy. ws.binOut and ws.rowCounts must be populated.
func (e *engine) assemble() *matrix.CSR {
	srcStart, binOut := e.ws.binStart, e.ws.binOut
	binOutStart := matrix.Grow(&e.ws.binOutStart, e.nbins+1)
	nnzc := par.PrefixSum(binOut, binOutStart)

	c := e.newResult(nnzc)
	// rowCounts[1:] holds per-row output counts; the parallel prefix turns
	// them into row pointers (identical to the sequential scan — integer
	// sums — and worth it on million-row outputs).
	par.PrefixSumParallel(e.ws.rowCounts[1:int(e.a.NumRows)+1], c.RowPtr, e.opt.Threads)
	if e.opt.Threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return c
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteAssembleBin, 0)
			}
			e.lay.unpackBin(e, c, srcStart[bin], binOutStart[bin], binOut[bin])
		}
	} else {
		par.ForEachDynamic(e.nbins, e.opt.Threads, func(worker, bin int) {
			defer e.containWorker(worker)
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteAssembleBin, worker)
			}
			e.lay.unpackBin(e, c, srcStart[bin], binOutStart[bin], binOut[bin])
		})
	}
	// An aborted assemble returns a partial c; the caller's post-phase
	// canceled() check discards it.
	return c
}

// newResult returns the output CSR: freshly allocated normally, or carved
// from the workspace's pooled output arrays when the workspace is shared.
// Value storage is the layout's call: Multiply's float64 layouts back c.Val,
// narrow and MultiplyWide fill a typed out plane their entry point returns
// beside a structural c, and pattern leaves the result structural (nil Val).
func (e *engine) newResult(nnzc int64) *matrix.CSR {
	rows, cols := e.a.NumRows, e.b.NumCols
	var c *matrix.CSR
	if e.shared {
		ws := e.ws
		ws.out = matrix.CSR{
			NumRows: rows, NumCols: cols,
			RowPtr: matrix.GrowInt64Zero(&ws.outRowPtr, int(rows)+1),
			ColIdx: matrix.Grow(&ws.outColIdx, int(nnzc)),
		}
		c = &ws.out
	} else {
		c = &matrix.CSR{
			NumRows: rows, NumCols: cols,
			RowPtr: make([]int64, int(rows)+1),
			ColIdx: make([]int32, nnzc),
		}
	}
	e.lay.growOut(e, c, nnzc)
	if e.f64Out != nil {
		// Multiply's float64 layouts: the out plane IS the result's Val, so
		// unpack writes one destination and the public float64 contract holds.
		c.Val = *e.f64Out
	}
	return c
}
