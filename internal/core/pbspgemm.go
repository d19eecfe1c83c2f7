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
//     bin by bin, fused as one of internal/radix's two kernels (fused.go):
//     typed + for (+, ×) over float64, float32 and int32, the caller's ⊕
//     otherwise. Bins keep local rows small enough that the key fits 4 bytes
//     (planBinGeometry). The fold writes C while the bin is hot: column ids
//     and values, at one thread right after the bin before it.
//  4. Assemble: bins cover disjoint, ordered row ranges, so the folded bins
//     in bin order are canonical CSR. At one thread a one-group product's
//     tuple planes are C (handed over) or one copy away; at more, each bin
//     is copied to its offset.
//
// Beyond the paper's single-shot design, a Workspace pools every buffer
// across calls (grow-only: zero steady-state allocations), and
// Options.MemoryBudgetBytes cuts the bins — row ranges of C — into contiguous
// groups whose tuples fit the budget (as does a key past maxKey32Bins bins),
// each running the phases on its own cut of A and assembling into C's next
// rows. Every bin still folds once, so the bytes are the single-shot run's:
// ESC bounds its memory by batching rows alike (Dalton, Olson and Bell, ACM
// TOMS 2015).
package core

import (
	"fmt"
	"math"
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
// expands in 0.86 / 0.98 / 0.94 of 512 B's time on the squeezed / narrow /
// pattern layouts (`experiments fig6a`, ER 2^16·d4, one thread, widths
// taking turns), ER 2^16·d8 squeezed in 30.4 ms for 35.3 and R-MAT 2^13·d16 in
// 54.3 for 74.8 (pattern 20.6 for 28.1). 2 KiB reads 0.95–1.00 of 1 KiB.
const DefaultLocalBinBytes = 1024

// DefaultL2CacheBytes is the sort-phase cache budget per bin, as the paper
// uses its machines' L2 (1 MiB on Skylake, 512 KiB/2 cores on POWER9). Bins
// start at flops × 16 B per budget; over LocalBinBytes it caps the two-pass
// trim (1 024 bins at the defaults; planBinGeometry, `experiments fig6b`).
const DefaultL2CacheBytes = 1 << 20

// Layout identifies the expanded-tuple representation of a run. The paper's
// Section III-D key squeezing observes that the packed key localRow<<colBits
// | col fits 4 bytes whenever localRowBits + colBits ≤ 32; bins make localRow
// small, and every run's bin geometry is chosen so that it holds
// (planBinGeometry). Tuples are then parallel arrays — a uint32 key plane
// beside the layout's value plane, if any — instead of 16-byte COO tuples:
// every layout is a key32 layout, and they differ in their value plane.
type Layout int8

const (
	// LayoutAuto is the zero value: no layout, what the Stats of a product
	// the tuple pipeline did not run report.
	LayoutAuto Layout = iota
	// LayoutGeneric is the key plane beside a plane of any value type V,
	// 4 + sizeof(V) bytes a tuple, multiplied and folded through the
	// caller's ⊗ and ⊕: MultiplyGeneric over a non-zero Algebra, for
	// semirings with no typed kernels.
	LayoutGeneric
	// LayoutSqueezed is the 12-byte SoA layout: []uint32 keys + []float64
	// values, multiplied and folded by the typed kernels: Multiply, and
	// MultiplyGeneric over a zero Algebra[float64].
	LayoutSqueezed
	// LayoutNarrow is the 8-byte SoA layout: []uint32 keys + a 4-byte value
	// plane (float32 or int32), multiplied and folded by the typed kernels:
	// MultiplyGeneric over a zero Algebra[float32] or Algebra[int32].
	LayoutNarrow
	// LayoutPattern is the 4-byte key-only layout of structural products:
	// tuples are bare []uint32 keys, folding is deduplication, and the result
	// CSR has no Val array. The MultiplyPattern entry runs it.
	LayoutPattern
)

// layoutTable is each Layout's name and, where fixed, its tuple bytes.
var layoutTable = [...]struct {
	name  string
	bytes int64
}{{"auto", 0}, {"generic", 0}, {"squeezed", SqueezedTupleBytes}, {"narrow", NarrowTupleBytes}, {"pattern", PatternTupleBytes}}

func (l Layout) String() string {
	if l < 0 || int(l) >= len(layoutTable) {
		return fmt.Sprintf("Layout(%d)", int8(l))
	}
	return layoutTable[l].name
}

// Per-tuple byte costs of the layouts — the b of the paper's traffic model
// (Eq. 4 / Table III), now per run.
const (
	// SqueezedTupleBytes is the parallel-array layout: a 4-byte key plus an
	// 8-byte value.
	SqueezedTupleBytes = 12
	// NarrowTupleBytes is the narrow parallel-array layout: a 4-byte key plus
	// a 4-byte value.
	NarrowTupleBytes = 8
	// PatternTupleBytes is the key-only layout: the 4-byte key is the tuple.
	PatternTupleBytes = 4
)

// TupleBytes returns the per-tuple byte cost of a layout of fixed width (0
// for LayoutAuto, which is no layout, and for LayoutGeneric, whose tuples are
// 4 + sizeof(V) bytes: Stats.TupleBytes reports a run's).
func (l Layout) TupleBytes() int64 {
	if l < 0 || int(l) >= len(layoutTable) {
		return 0
	}
	return layoutTable[l].bytes
}

// tupleBytes is the per-tuple cost the flop rule of the bin count uses: the
// paper's 16-byte COO tuple, the same for every layout, so its bins are too.
const tupleBytes = 16

// Options tunes PB-SpGEMM. The zero value selects the paper's defaults.
type Options struct {
	// NBins requests the number of global bins; 0 derives it from flop and
	// L2CacheBytes (Algorithm 3 line 6), then shortens bins whose key the LSD
	// would sort in more than two passes. Either way the run raises it until
	// the packed key fits 32 bits (planBinGeometry); past maxKey32Bins bins
	// the run is cut into groups of at most that many.
	NBins int
	// LocalBinBytes is the requested width of each thread-private local bin;
	// 0 means DefaultLocalBinBytes (1024). The capacity actually used is the
	// request in tuples of the run's layout rounded down to a multiple of 16
	// tuples, and never below 16 (LocalBinTuples): flushes then move whole
	// cache lines. 1024 B gives 80 squeezed, 128 narrow and 256 pattern
	// tuples; any request under one line of keys runs at 16.
	LocalBinBytes int
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// L2CacheBytes is the per-bin cache budget used to auto-size NBins;
	// 0 means DefaultL2CacheBytes.
	L2CacheBytes int
	// MemoryBudgetBytes caps the expanded-tuple buffer — the flops×16-byte
	// working set that dominates PB-SpGEMM's footprint. When positive and
	// smaller than the run's tuples, the bins are cut into contiguous groups
	// (row ranges of C) whose expanded tuples each fit the budget, and each
	// group runs expand, fold and assemble on its own rows. The bytes do not
	// depend on it. 0 means unlimited (one group, the paper's single-shot
	// algorithm). A budget under L2CacheBytes also sizes the flop rule's bins.
	// The budget is best-effort: one bin is the smallest schedulable unit, so
	// a bin whose tuples alone exceed the budget still runs as its own group.
	MemoryBudgetBytes int64
	// Workspace, if non-nil, supplies grow-only pooled buffers reused across
	// calls (zero steady-state allocations when Threads == 1). The returned
	// CSR and Stats then alias workspace memory and are invalidated by the
	// next call using the same workspace.
	Workspace *Workspace
	// Cancel, if non-nil, is polled at phase boundaries and inside the long
	// phase loops: per column chunk in expand (every ~cancelPollTuples
	// expanded tuples) and in the cut of A for bin groups (as many entries),
	// per task in the fuse phase, per bin in a multi-threaded assemble. A
	// non-nil return aborts the multiplication with that
	// error; workers drain to the next poll before the join, so no goroutines
	// leak. The public API wires context.Context.Err here.
	Cancel func() error
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
// (Table III), from which sustained bandwidth per phase is derived. Assemble
// is what follows the fold: the copy of folded tuples into C (none when C is
// the tuple planes), the output's growth and the row pointers' prefix sum.
type Stats struct {
	Symbolic, Expand, Assemble time.Duration
	// Fuse is the fused sort+fold phase: the paper's sort and compress
	// phases, run as one pass per bin while the bin is in cache (fused.go).
	Fuse  time.Duration
	Total time.Duration

	Flops int64 // multiplications performed (nnz of C-hat)
	NNZC  int64 // nonzeros in the final C
	NBins int   // global bins used
	// NGroups is the number of bin groups the run was cut into (1 unless
	// MemoryBudgetBytes forced a cut).
	NGroups int
	CF      float64

	// Layout is the expanded-tuple layout the run used: LayoutSqueezed
	// (12 bytes, float64 values, typed kernels), LayoutNarrow (8 bytes,
	// float32/int32 values, typed kernels), LayoutPattern (4 bytes, keys
	// only; MultiplyPattern) or LayoutGeneric (4 + sizeof(V) bytes, the
	// caller's ⊗ and ⊕).
	Layout Layout
	// TupleBytes is the per-tuple byte cost of the run (12, 8, 4, or
	// 4 + sizeof(V)) — the b entering the traffic model below.
	TupleBytes int64
	// Kernel names the inner-loop kernel set of the build, internal/simd's
	// Level(): "batched", "batched+goamd64v3", or "purego" (the scalar loops)
	// on builds with that tag.
	Kernel string

	// SortOwned counts the bins the fuse phase folded under its parallel
	// schedule (multi-threaded runs; summed over groups on budgeted runs).
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
	maxGroupFlops int64 // largest group's flop count: the tuple buffer's size
	nbins         int
	ngroups       int
	group         int // the group running; its bins are [binLo, binHi)
	binLo, binHi  int
	// The running group's A, doubly compressed: its j-th column is column
	// cols[j] of A (row cols[j] of B), entries rows[ptr[j]:ptr[j+1]] with the
	// layout's values beside them, colFlops[j] flops. One group walks A in
	// place (identity cols over ColPtr, RowIdx); several, cutA's cut.
	cols, rows    []int32
	ptr           []int64
	colFlops      []int64
	outLen        int64  // output entries the groups before this one assembled
	folded        int64  // folded tuples of bins [binLo, compactEnd), at the tuple planes' head
	compactEnd    int    // the first bin of the group the fold left in place (fuseWholeBin)
	flopsDone     int64  // flops of the groups expanded so far, this one included
	rowShift      uint   // bin = row>>rowShift (shift/mask replaces division; rows per bin = 1<<rowShift)
	rowMask       uint32 // localRow = row&rowMask
	colBits       uint
	layout        Layout    // the entry point's tuple layout
	lay           layoutOps // per-layout element accesses (layout.go)
	tupleBytes    int64     // per-tuple cost of the run: a 4-byte key plus the layout's value
	localCap      int32     // tuples per thread-private local bin
	ntFlush       bool      // stream bin flushes with non-temporal stores (per group)
	scratchStride int64     // per-worker stride into the sort scratch planes

	// What forEachBin's bin bodies read, as they capture nothing.
	tally  []int64     // row counts the fuse phase tallies into
	result *matrix.CSR // assemble's output

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
// it past the next call). It is MultiplyGeneric's float64 (+, ×) instance:
// the squeezed layout, with the values in the result's Val.
func Multiply(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	c, vals, st, err := MultiplyGeneric(a, a.Val, b, b.Val, Algebra[float64]{}, opt)
	if err != nil {
		return nil, nil, err
	}
	c.Val = vals
	return c, st, nil
}

// newEngine validates the shapes and binds the workspace-resident engine for
// one run of the entry point's layout; the entry point then binds e.lay (and
// MultiplyGeneric sets tupleBytes). opt must already have defaults applied.
func newEngine(a *matrix.CSC, b *matrix.CSR, opt Options, layout Layout) (*engine, error) {
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
	*e = engine{a: a, b: b, opt: opt, ws: ws, shared: shared, layout: layout, tupleBytes: layout.TupleBytes()}
	ws.handed = nil
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
	e.a, e.b, e.st, e.lay, e.tally, e.result, e.ptr, e.rows = nil, nil, nil, nil, nil, nil, nil, nil
	e.ws.f64.unbind()
	if e.ws.vals != nil {
		e.ws.vals.unbind()
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
	e.planBins()
	e.st.Symbolic = time.Since(t0)
	e.st.Flops = e.flops
	e.st.NBins = e.nbins
	e.st.NGroups = 1
	e.st.Layout = e.layout
	e.st.TupleBytes = e.tupleBytes

	if e.flops == 0 {
		c := e.growResult(nil, 0)
		e.st.Total = time.Since(totalStart)
		return c, nil
	}
	if err := e.canceled(); err != nil {
		return nil, err
	}

	c, err := e.runGroups()
	if err != nil {
		return nil, err
	}
	// Count nnz(C) from the row pointers, not c.NNZ(): pattern results carry
	// no Val array, which NNZ() measures.
	e.st.NNZC = c.RowPtr[c.NumRows]
	// ExpandBytes counts the loads and stores the expand loop executes, as
	// STREAM does: each stored nonzero of A once (its index and value; 8-byte
	// values at the paper's 16-byte COO entry, which bench's pct_of_stream
	// floors were set against), and per flop one B element in and one tuple
	// out, a tuple's bytes each way. A re-fetch of B shows in time, not bytes.
	inBytes := e.tupleBytes
	if e.tupleBytes == SqueezedTupleBytes {
		inBytes = matrix.BytesPerTuple
	}
	e.st.ExpandBytes = inBytes*int64(len(e.a.RowIdx)) + 2*e.tupleBytes*e.flops
	e.st.FusedBytes = e.tupleBytes * e.flops
	if e.st.NNZC > 0 {
		e.st.CF = float64(e.st.Flops) / float64(e.st.NNZC)
	}
	e.st.Total = time.Since(totalStart)
	return c, nil
}

// runGroups is the paper's algorithm, run once per bin group: plan, expand,
// fold the group's bins with row tallies, and unpack them into the output's
// next entries. With one group — no budget, or one the product fits — it is
// the single-shot run over A in place; with several, each walks its slice of
// A's cut (cutA). The row pointers are one prefix sum over the tallies once
// every group is in.
func (e *engine) runGroups() (*matrix.CSR, error) {
	t0 := time.Now()
	e.planWhole()
	e.planGroups()
	e.st.NGroups = e.ngroups
	if e.ngroups > 1 {
		e.lay.cut(e)
		if err := e.canceled(); err != nil {
			return nil, err
		}
	}
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteGrow, 0)
	}
	e.lay.growTuples(e, e.maxGroupFlops)
	matrix.Grow(&e.ws.binOut, e.nbins)
	e.tally = matrix.GrowInt64Zero(&e.ws.rowCounts, int(e.a.NumRows)+1)
	e.st.Symbolic += time.Since(t0)

	var c *matrix.CSR
	for e.group = 0; e.group < e.ngroups; e.group++ {
		if e.ngroups > 1 {
			t0 = time.Now()
			e.phase = "plan"
			e.planGroup()
			e.st.Symbolic += time.Since(t0)
		}

		t0 = time.Now()
		e.phase = "expand"
		e.expand()
		e.flopsDone += e.ws.binStart[e.binHi]
		e.st.Expand += time.Since(t0)
		if err := e.canceled(); err != nil {
			return nil, err
		}

		t0 = time.Now()
		e.phase = "sort"
		e.runSortPhase()
		e.st.Fuse += time.Since(t0)
		if err := e.canceled(); err != nil {
			return nil, err
		}

		t0 = time.Now()
		e.phase = "assemble"
		c = e.assemble(c)
		e.st.Assemble += time.Since(t0)
		if err := e.canceled(); err != nil {
			return nil, err
		}
	}
	// The tallies hold per-row output counts; the parallel prefix turns them
	// into row pointers (identical to the sequential scan — integer sums — and
	// worth it on million-row outputs).
	t0 = time.Now()
	par.PrefixSumParallel(e.tally[1:int(e.a.NumRows)+1], c.RowPtr, e.opt.Threads)
	e.st.Assemble += time.Since(t0)
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

// planWhole plans the whole product as one group: every column of A, every
// bin. It is a single-shot run's plan, and the per-bin counts planGroups cuts.
func (e *engine) planWhole() {
	k := int(e.a.NumCols)
	if len(e.ws.ident) < k { // grow-only: 0, 1, 2, …
		for i := range matrix.Grow(&e.ws.ident, k) {
			e.ws.ident[i] = int32(i)
		}
	}
	e.cols, e.ptr, e.rows, e.colFlops = e.ws.ident[:k], e.a.ColPtr, e.a.RowIdx, e.ws.colFlops
	e.binLo, e.binHi = 0, e.nbins
	e.expandPlan(matrix.GrowInt64Zero(&e.ws.binFlops, e.nbins))
}

// planGroups cuts the bins into contiguous groups of at most maxKey32Bins
// bins whose expanded tuples — the per-bin flops expandPlan counted over the
// whole product, at the run's tuple bytes — fit MemoryBudgetBytes, leaving
// their bin boundaries in ws.groupStart. A bin over the budget by itself runs
// alone (with any empty bins after it, up to the bin cap). With at most
// maxKey32Bins bins and no budget, or a budget the whole product fits, there
// is exactly one group, and the whole product's plan is its plan.
func (e *engine) planGroups() {
	gs := append(e.ws.groupStart[:0], 0)
	budget := int64(math.MaxInt64) // in tuples
	if e.opt.MemoryBudgetBytes > 0 {
		budget = e.opt.MemoryBudgetBytes / e.tupleBytes
	}
	if e.flops <= budget && e.nbins <= maxKey32Bins {
		e.maxGroupFlops = e.flops
	} else {
		var cur, maxf int64
		group := matrix.Grow(&e.ws.binGroup, e.nbins) // each bin's, for cutA
		for bin, f := range e.ws.binFlops {
			if bin-gs[len(gs)-1] == maxKey32Bins || f > 0 && cur > 0 && cur+f > budget {
				gs, maxf, cur = append(gs, bin), max(maxf, cur), 0
			}
			cur, group[bin] = cur+f, int32(len(gs)-1)
		}
		e.maxGroupFlops = max(maxf, cur)
	}
	e.ws.groupStart = append(gs, e.nbins)
	e.ngroups = len(e.ws.groupStart) - 1
}

// cutA cuts A once for a run of several groups, doubly compressed (Buluç and
// Gilbert, IPDPS 2008): a stable counting pass over the entries whose row of
// B is not empty, keyed by their bin's group, lays out each group's rows
// (ws.cutRows) and, given aVal, values (returned, in pool) in column order,
// and lists each column once a group with its first entry (ws.cutCols,
// ws.cutPtr), so every bin gets its tuples in the single-shot order.
func cutA[V any](e *engine, aVal []V, pool *[]V) []V {
	a, b, ws, ng, group, shift := e.a, e.b, e.ws, e.ngroups, e.ws.binGroup, e.rowShift
	cur := matrix.Grow(&ws.cutGroups, ng+1)
	clear(cur)
	var rows, list []int32
	var ptr []int64
	var vals []V
	// Pass 0 counts each group's entries and columns; pass 1 writes them back to
	// front from its end, leaving the cursors on its start, a column's offset on its first.
	for pass, step := range []int64{1, -1} {
		if pass == 1 {
			var n cutCursor
			for g, c := range cur[:ng] {
				n.ent, n.col = n.ent+c.ent, n.col+c.col
				cur[g] = cutCursor{ent: n.ent, col: n.col} // the group's end
			}
			cur[ng] = n
			rows, list = matrix.Grow(&ws.cutRows, int(n.ent)), matrix.Grow(&ws.cutCols, int(n.col))
			if ptr = matrix.Grow(&ws.cutPtr, int(n.col)+1); aVal != nil {
				vals = matrix.Grow(pool, int(n.ent))
			}
			ptr[n.col] = n.ent
		}
		var sincePoll int64
		for i := a.NumCols - 1; i >= 0; i-- {
			if b.RowPtr[i] == b.RowPtr[i+1] {
				continue
			}
			lo, hi := a.ColPtr[i], a.ColPtr[i+1]
			for p, col := hi-1, int64(i)+1; p >= lo; p-- {
				r := a.RowIdx[p]
				c := &cur[group[uint32(r)>>shift]]
				j := c.col
				if c.last != col { // a conditional move: few groups make it a coin toss
					j += step
				}
				if c.col, c.last, c.ent = j, col, c.ent+step; pass == 1 {
					list[j], ptr[j], rows[c.ent] = i, c.ent, r
					if vals != nil {
						vals[c.ent] = aVal[p]
					}
				}
			}
			if sincePoll += hi - lo; sincePoll >= cancelPollTuples {
				sincePoll = 0
				if e.pollCancel() {
					return nil
				}
			}
		}
	}
	return vals
}

// cutCursor is a group's count, then cursor, then start in cutA: entries,
// columns, and 1 + the last column it took an entry from.
type cutCursor struct{ ent, col, last int64 }

// planGroup lays out the running group of a run with several: its bins, its
// slice of the cut (cutA) and expandPlan's offsets and thread boundaries,
// balanced on the group's column flops (one thread balances nothing).
func (e *engine) planGroup() {
	ws, g := e.ws, e.group
	e.binLo, e.binHi = ws.groupStart[g], ws.groupStart[g+1]
	lo, hi := ws.cutGroups[g].col, ws.cutGroups[g+1].col
	e.cols, e.ptr, e.rows = ws.cutCols[lo:hi], ws.cutPtr[lo:hi+1], ws.cutRows
	e.colFlops = ws.colFlops[:hi-lo] // a group lists a column once at most
	if e.opt.Threads > 1 {
		for j, i := range e.cols {
			e.colFlops[j] = (e.ptr[j+1] - e.ptr[j]) * e.b.RowNNZ(i)
		}
	}
	e.expandPlan(nil)
}

// binGeometry is the bin shape planBinGeometry derives: nbins bins of
// 1<<rowShift rows each, exactly tiling [0, rows).
type binGeometry struct {
	nbins    int
	rowShift uint
}

// planBinGeometry derives the bin geometry (Algorithm 3 line 6) from the
// flop count, so each bin fits the L2 budget during sorting — or a smaller
// memory budget, so that it still leaves bins to cut into groups. Rows per
// bin are a power of two (expand derives bin and local row by shift and
// mask), and the flop rule charges the 16-byte COO tuple; only the dense cut
// reads the run's own, runTupleBytes.
//
// An auto key the LSD sorts in more than two passes (radix.Passes at the mean
// bin) then gets the largest rowShift at which it is two, if that leaves at
// most min(2048, L2CacheBytes/LocalBinBytes) bins of radix.FullDigitTuples
// each (expand's local bins stay L2-resident, Fig. 5): er_lowcf goes from 64
// bins of 26-bit keys to 1 024 of 22, fuse 60–62 → 43–46 ms for 3 ms more
// expand (`experiments fig6b`). An auto geometry whose mean bin folds dense
// (denseFold) then gets shorter bins, under the same cap, until accumulator,
// bitmap and tuples fit L2CacheBytes, as Patwary et al. block B's columns:
// rmat_skew goes from 256 bins of 5+13 bits to 1 024 of 3+13; the pattern
// layout, whose accumulator is a bitmap, keeps 256.
//
// Last, rowShift is cut to 32 − colBits, so the key fits whatever the rules
// above chose — past the 2 048-bin cap and an explicit NBins if it has to (ER
// 2^20·d2 runs 256 bins of 12+20 bits); past maxKey32Bins bins, planGroups
// cuts them into groups. Bytes never depend on the geometry.
func planBinGeometry(rows int32, flops int64, colBits uint, runTupleBytes int64, opt Options) binGeometry {
	// The auto value is capped at 2048: the paper uses 1K-2K bins in
	// practice (Section V-A) because each thread also keeps one local bin
	// per global bin, and nbins*LocalBinBytes must stay within the cache for
	// the expand phase to stream (Fig. 5). Callers can override with an
	// explicit NBins.
	const maxAutoBins = 2048
	nbins := int64(opt.NBins)
	if nbins <= 0 {
		per := int64(opt.L2CacheBytes)
		if b := opt.MemoryBudgetBytes; b > 0 && b < per {
			per = b
		}
		nbins = min((flops*tupleBytes+per-1)/per, maxAutoBins)
	}
	if nbins = max(nbins, 1); rows <= 0 {
		return binGeometry{nbins: int(nbins)}
	}
	shift := bits.Len64(uint64((int64(rows)+nbins-1)/nbins - 1)) // ceil(log2(rows per bin))
	binsAt := func(s int) int64 { return (int64(rows) + 1<<s - 1) >> s }
	perBin := func(s int) int { return int((flops + binsAt(s) - 1) / binsAt(s)) }
	maxBins, l2 := int64(min(maxAutoBins, opt.L2CacheBytes/opt.LocalBinBytes)), int64(opt.L2CacheBytes)
	if opt.NBins <= 0 && radix.Passes(perBin(shift), shift+int(colBits)) > 2 {
		for s := shift - 1; s >= 0 && binsAt(s) <= maxBins && perBin(s) >= radix.FullDigitTuples; s-- {
			if radix.Passes(perBin(s), s+int(colBits)) <= 2 {
				shift = s
				break
			}
		}
	}
	valBytes := runTupleBytes - 4 // an accumulator slot: the tuple less its key
	if opt.NBins <= 0 && denseFold(int64(perBin(shift)), uint(shift)+colBits, valBytes, l2) {
		for ; shift > 0 && binsAt(shift-1) <= maxBins; shift-- {
			if slots := int64(1) << (uint(shift) + colBits); slots*valBytes+slots/8+int64(perBin(shift))*runTupleBytes <= l2 {
				break
			}
		}
	}
	shift = min(shift, int(32-colBits))
	return binGeometry{nbins: int(binsAt(shift)), rowShift: uint(shift)}
}

// planBins fixes the run's bin geometry for its layout: fixed row ranges of
// C, which a budgeted run cuts into groups (planGroups).
func (e *engine) planBins() {
	// Section III-D key squeezing: the in-bin local row id needs rowShift
	// bits, so the packed key fits a uint32 whenever rowShift + colBits ≤ 32.
	g := planBinGeometry(e.a.NumRows, e.flops, e.colBits, e.tupleBytes, e.opt)
	e.nbins = g.nbins
	e.rowShift = g.rowShift
	e.rowMask = uint32(int64(1)<<g.rowShift - 1)
	e.localCap = LocalBinTuples(e.opt.LocalBinBytes, e.tupleBytes)
}

// flushAlign is the flush granularity in tuples: 16 four-byte keys are one
// 64-byte cache line, 16 eight-byte values two.
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
// holds no pointers: the NT copy writes no GC barriers (values.flat).
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

// maxKey32Bins caps the bins of one group. The 32-bit cut's bins follow the
// shape (rows·2^colBits/2^32), not the work — a 2·10^7 square needs 156 250 —
// and so would every per-worker per-bin array: the local arena is threads ×
// bins × LocalBinBytes. A group's are sized by its own bins, so a shape past
// the cap runs in groups of at most 4 096 bins (planGroups), the fan-out of
// one radix partitioning pass that still streams (Polychroniou and Ross,
// SIGMOD 2014).
const maxKey32Bins = 4096

// colBitsFor is the packed-key width of a column id for a B with bCols
// columns: the bits of the largest id, bCols-1 (at least 1 bit). A
// power-of-two bCols wastes no bit, which halves the key space the dense fold
// addresses and can spare the sparse one a pass.
func colBitsFor(bCols int32) uint {
	return uint(max(bits.Len32(uint32(max(bCols, 1)-1)), 1))
}

// expandPlan lays out the running group's expand: thread boundaries balanced
// over engine.colFlops in ws.colBounds, and the exclusive prefix of its bins'
// flops (ws.binFlops, which the whole product's plan counts into sum) in
// ws.binStart. With several threads each worker counts its own columns
// exactly, and the counts become exclusive write offsets in place: thread t
// writes bin b at binStart[b] + Σ_{t'<t} count(t', b). Flushes are then plain
// copies with no atomics, in the sequential order at any thread count. The
// per-worker arrays (ws.perThread, ws.cursors) are indexed by bin − binLo.
func (e *engine) expandPlan(sum []int64) {
	gb := e.binHi - e.binLo
	threads := e.opt.Threads
	e.ws.colBounds = par.BalancedBoundariesInto(
		e.colFlops, threads, matrix.Grow(&e.ws.colBounds, threads+1))
	var pt []int64
	if threads == 1 && sum != nil {
		e.countBins(0, len(e.cols), sum)
	} else if threads > 1 {
		pt = matrix.GrowInt64Zero(&e.ws.perThread, threads*gb)
		bounds := e.ws.colBounds
		par.ParallelRun(threads, func(t int) {
			e.countBins(bounds[t], bounds[t+1], pt[t*gb:(t+1)*gb])
		})
		for t := 0; t < threads && sum != nil; t++ {
			for bin, c := range pt[t*gb : (t+1)*gb] {
				sum[bin] += c
			}
		}
	}
	par.PrefixSum(e.ws.binFlops[e.binLo:e.binHi], matrix.Grow(&e.ws.binStart, e.nbins+1)[e.binLo:e.binHi+1])
	// Exclusive per-thread write offsets, computed in place over pt (the
	// counts are consumed as they are replaced). ws.cursors is scratch here;
	// with one thread it is reset below to binStart and used directly as the
	// single worker's cursor array.
	cursors := matrix.Grow(&e.ws.cursors, gb)
	copy(cursors, e.ws.binStart[e.binLo:e.binHi])
	for t := 0; t < threads && pt != nil; t++ {
		local := pt[t*gb : (t+1)*gb]
		for bin, c := range local {
			local[bin] = cursors[bin]
			cursors[bin] += c
		}
	}
	copy(cursors, e.ws.binStart[e.binLo:e.binHi])
}

// countBins adds the flops of columns [lo, hi) of the running group to
// binFlops, indexed by the group's bins.
func (e *engine) countBins(lo, hi int, binFlops []int64) {
	b, cols, ptr, rows, shift, binLo := e.b, e.cols, e.ptr, e.rows, e.rowShift, uint32(e.binLo)
	for j := lo; j < hi; j++ {
		bRow := b.RowNNZ(cols[j])
		if bRow == 0 {
			continue
		}
		for p := ptr[j]; p < ptr[j+1]; p++ {
			binFlops[uint32(rows[p])>>shift-binLo] += bRow
		}
	}
}

// expand runs the outer-product expansion with propagation blocking
// (Algorithm 2 lines 5–18) over the running group's entries of A, writing
// into the tuple buffer at the offsets ws.binStart laid out. Global-bin space
// was exactly pre-sized by expandPlan, and each worker owns an exclusive
// pre-reserved range per bin (its row of ws.perThread), so a flush is a plain
// bulk copy (the paper's MemCopy) with no atomic reservation —
// contention-free, and the resulting tuple order is identical at any thread
// count.
func (e *engine) expand() {
	threads := e.opt.Threads
	gb := e.binHi - e.binLo
	localTuples := int64(threads) * int64(gb) * int64(e.localCap)
	e.lay.growLocals(e, localTuples)
	lens := matrix.Grow(&e.ws.localLens, threads*gb)
	// Every local bin starts filling at its cursor's phase (flushSpan).
	// expandPlan left the lone worker's cursors in ws.cursors and the
	// workers' rows of exclusive offsets in ws.perThread.
	cursors := e.ws.cursors
	if threads > 1 {
		cursors = e.ws.perThread
	}
	for i, c := range cursors[:threads*gb] {
		lens[i] = flushPhase(c)
	}
	// Flush with non-temporal stores only when this group's tuple arena
	// clearly outgrows the LLC: that is where a plain store's
	// read-for-ownership is real DRAM traffic whole-line NT stores avoid
	// (36 ms against copy()'s 48 on the 228 MB arena of BENCHMARK.json's
	// rmat_skew product, 18 against 19 on er_lowcf's 50 MB). On smaller
	// arenas the two are a wash and the lines stay cached for the sort's
	// read-back, so those keep copy().
	e.ntFlush = simd.HasNT && e.ws.binStart[e.binHi]*e.tupleBytes >= ntMinArenaBytes
	if threads == 1 {
		e.lay.expandRange(e, 0, cursors)
		e.fenceFlushes()
	} else {
		par.ParallelRun(threads, func(t int) {
			// containWorker (not the par-level recover) so a panicking
			// expand worker latches the abort and its siblings bail at
			// their next sub-phase poll instead of finishing their ranges.
			defer e.containWorker(t)
			e.lay.expandRange(e, t, cursors[t*gb:(t+1)*gb])
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

// ntMinArenaBytes is the smallest per-group tuple arena that flushes with
// non-temporal stores (expand). 32 MiB sits safely above typical LLCs; a
// variable (not const) so tests can force the NT path on small inputs.
var ntMinArenaBytes int64 = 32 << 20

// assemble moves the running group's folded tuples (column ids and values)
// into the result's next entries: bins hold disjoint ascending row ranges, so
// they are in CSR order, and the row pointers wait for the last group
// (runGroups). The bins the fold compacted (fuseWholeBin) sit at the head of
// the tuple planes: when that is every bin of a one-group run, the planes are
// handed over as the result (arenaFits), else the head is one copy. Each bin
// folded in place is copied from its binStart offset (ws.binOut).
func (e *engine) assemble(c *matrix.CSR) *matrix.CSR {
	lo, hi, head := e.compactEnd, e.binHi, e.folded
	nnz := head + par.PrefixSum(e.ws.binOut[lo:hi], matrix.Grow(&e.ws.binOutStart, e.nbins+1)[lo:hi+1])
	if lo == hi && e.ngroups == 1 && arenaFits(cap(e.ws.tupleKeys), nnz) && e.lay.handOver(e, nnz) {
		c, e.ws.handed, e.outLen = e.newResult(), e.lay, nnz
		c.ColIdx = colIdx(e.ws.tupleKeys[:nnz])
		return c
	}
	c = e.growResult(c, e.outLen+nnz)
	if e.result = c; head > 0 {
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteAssembleBin, 0)
		}
		e.copyOut(0, e.outLen, head)
	}
	e.forEachBin(faultinject.SiteAssembleBin, lo, func(e *engine, _, bin int) {
		e.copyOut(e.ws.binStart[bin], e.outLen+e.folded+e.ws.binOutStart[bin], e.ws.binOut[bin])
	})
	// An aborted assemble leaves a partial c; the caller's post-phase
	// canceled() check discards it.
	e.outLen += nnz
	return c
}

// copyOut copies n folded tuples at srcOff of the tuple planes to C at dstOff.
func (e *engine) copyOut(srcOff, dstOff, n int64) {
	copy(e.result.ColIdx[dstOff:dstOff+n], colIdx(e.ws.tupleKeys[srcOff:srcOff+n]))
	e.lay.copyOut(e, srcOff, dstOff, n)
}

// colIdx views folded keys, masked to column ids by the fold, as ColIdx.
func colIdx(k []uint32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(k))), len(k))
}

// arenaFits reports whether n entries fill a tuple plane of the given capacity
// but for 1/32: a product handed it pins at most 1/32 more than a copy would.
func arenaFits(capacity int, n int64) bool { return int64(capacity)-n <= int64(capacity)/32 }

// forEachBin runs do on the running group's bins from lo, polling cancellation
// and firing site before each: in bin order on the calling goroutine at
// Threads == 1 (no scheduler, no allocation), else one bin per iteration of a
// dynamic parallel-for whose workers are contained (fault.go). do reads its
// state from the engine: a closure that captured it would escape to the heap.
func (e *engine) forEachBin(site faultinject.Site, lo int, do func(e *engine, worker, bin int)) {
	if e.opt.Threads == 1 {
		for bin := lo; bin < e.binHi && !e.pollCancel(); bin++ {
			if faultinject.Enabled {
				faultinject.Fire(site, 0)
			}
			do(e, 0, bin)
		}
		return
	}
	par.ForEachDynamic(e.binHi-lo, e.opt.Threads, func(worker, i int) {
		defer e.containWorker(worker)
		if e.pollCancel() {
			return
		}
		if faultinject.Enabled {
			faultinject.Fire(site, worker)
		}
		do(e, worker, lo+i)
	})
}

// growResult sizes the output for nnzc entries. A run's first group gets it
// fresh — carved from the workspace's pooled output arrays when the
// workspace is shared — and a later group extends it, keeping what the groups
// before it wrote. Value storage is the layout's call: the value layout
// fills a typed out plane its entry point returns beside a structural c
// (Multiply then makes it c.Val), and pattern leaves the result structural
// (nil Val).
func (e *engine) growResult(c *matrix.CSR, nnzc int64) *matrix.CSR {
	if c == nil {
		c = e.newResult()
	}
	c.ColIdx = resultPlane(e, c.ColIdx, &e.ws.outColIdx, nnzc)
	e.lay.growOut(e, nnzc)
	return c
}

// newResult is the result's header and zeroed row counts: pooled on a shared
// workspace, fresh otherwise.
func (e *engine) newResult() *matrix.CSR {
	rows, cols := e.a.NumRows, e.b.NumCols
	if !e.shared {
		return &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, int(rows)+1)}
	}
	e.ws.out = matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: matrix.GrowInt64Zero(&e.ws.outRowPtr, int(rows)+1)}
	return &e.ws.out
}

// resultPlane sizes one plane of the result to n entries: fresh for a run's
// first group (from pool on a shared workspace), cur extended with its
// entries kept for a later one. A plane that must reallocate reserves
// outCap(n).
func resultPlane[V any](e *engine, cur []V, pool *[]V, n int64) []V {
	if e.group == 0 {
		cur = nil
		if e.shared {
			cur = (*pool)[:0]
		}
	}
	if int64(cap(cur)) < n {
		grown := make([]V, n, e.outCap(n))
		copy(grown, cur)
		cur = grown
	}
	cur = cur[:n]
	if e.shared {
		*pool = cur
	}
	return cur
}

// outCap is the capacity a result plane reallocated for n entries reserves:
// room for the flops still to run at twice the entries a flop the groups so
// far made, but never more than one entry a flop. A single group's is exactly
// n. The early groups of a power-law product fold the most, so a plain
// extrapolation falls short and regrows, and every regrowth copies and
// faults in the entries before it: R-MAT 2^14·d16 squared in 10 groups
// touched 3.1× its output that way, 1.75× at twice the rate, and 1.00× in 2
// or 3 groups, reserving at most 1.18× (1.54× and 1.17× in 41 groups).
func (e *engine) outCap(n int64) int64 {
	rest := e.flops - e.flopsDone
	return n + min(rest, int64(2*float64(n)*float64(rest)/float64(e.flopsDone)))
}
