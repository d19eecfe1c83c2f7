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
//     bin by bin under a dynamic schedule. Bins keep local row ids small
//     enough that the key fits 4 bytes on every run (planBinGeometry adds
//     bins until it does), and the two steps run fused, as one of
//     internal/radix's two kernels (fused.go): typed + for the typed entries,
//     the caller's ⊕ for MultiplyGeneric, which serves any value type and
//     any (⊕, ⊗).
//  4. Assemble: bins cover disjoint, ordered row ranges, so concatenating
//     the folded bins is already canonical CSR order.
//
// Two execution-engine extensions go beyond the paper's single-shot design:
//
//   - A Workspace pools the tuple buffer, local bins and all plan arrays
//     across calls (grow-only), so repeated multiplications run with zero
//     steady-state heap allocations instead of re-allocating the
//     flops×16-byte expansion every call.
//   - Options.MemoryBudgetBytes cuts the bins — row ranges of C — into
//     contiguous groups whose expanded tuples fit the budget (and a shape
//     whose 32-bit key needs more than maxKey32Bins bins is cut into groups
//     of at most that many), and runs the four phases once per group:
//     expand takes only the entries of A whose row falls in the group, and
//     the group's bins fold and assemble into the output's next rows. Every bin still folds all its tuples once, so
//     a budgeted product is the unbudgeted one, bit for bit. This serves
//     products whose flops×16 expansion exceeds RAM, as ESC bounds its memory
//     by batching output rows (Dalton, Olson and Bell, ACM TOMS 2015).
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
	// caller's ⊗ and ⊕: MultiplyGeneric runs it, for semirings with no typed
	// entry.
	LayoutGeneric
	// LayoutSqueezed is the 12-byte SoA layout: []uint32 keys + []float64
	// values. The Multiply entry runs it (MultiplyLayout).
	LayoutSqueezed
	// LayoutNarrow is the 8-byte SoA layout: []uint32 keys + a 4-byte value
	// plane (float32 or int32). The MultiplyNarrow entry runs it.
	LayoutNarrow
	// LayoutPattern is the 4-byte key-only layout of structural products:
	// tuples are bare []uint32 keys, folding is deduplication, and the result
	// CSR has no Val array. The MultiplyPattern entry runs it.
	LayoutPattern
)

func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutGeneric:
		return "generic"
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
	switch l {
	case LayoutSqueezed:
		return SqueezedTupleBytes
	case LayoutNarrow:
		return NarrowTupleBytes
	case LayoutPattern:
		return PatternTupleBytes
	}
	return 0
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
	// expanded tuples), per task in the fuse phase, per bin in assemble. A
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
// (Table III), from which sustained bandwidth per phase is derived.
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
	// (12 bytes, float64 values; Multiply), LayoutNarrow (8 bytes,
	// float32/int32 values; MultiplyNarrow), LayoutPattern (4 bytes, keys
	// only; MultiplyPattern) or LayoutGeneric (4 + sizeof(V) bytes;
	// MultiplyGeneric).
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
	// The columns the running group expands, j = 0, 1, …: its entries
	// [colLo[j], colHi[j]) of a column of A, the row [rowLo[j], rowHi[j]) of B
	// they meet, and their colFlops[j]. With one group these are views of A's
	// ColPtr, B's RowPtr and the symbolic flops, a j per column; with more,
	// of the group's spans (splitColumns) — only the columns its rows reach.
	colLo, colHi  []int64
	rowLo, rowHi  []int64
	colFlops      []int64
	outLen        int64  // output entries the groups before this one assembled
	flopsDone     int64  // flops of the groups expanded so far, this one included
	rowShift      uint   // bin = row>>rowShift (shift/mask replaces division; rows per bin = 1<<rowShift)
	rowMask       uint32 // localRow = row&rowMask
	colBits       uint
	layout        Layout     // the entry point's tuple layout
	lay           layoutOps  // per-layout element accesses (layout.go)
	f64Out        *[]float64 // Multiply's out plane (the squeezed layout's), else nil
	tupleBytes    int64      // per-tuple cost of the run: a 4-byte key plus the layout's value
	localCap      int32      // tuples per thread-private local bin
	ntFlush       bool       // stream bin flushes with non-temporal stores (per group)
	scratchStride int64      // per-worker stride into the sort scratch planes

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
// it past the next call). It runs the squeezed layout.
func Multiply(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutSqueezed)
	if err != nil {
		return nil, nil, err
	}
	l := &e.ws.kvF64
	l.aVal, l.bVal = a.Val, b.Val
	e.lay, e.f64Out = l, &l.out
	return e.runContained()
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
	e.a, e.b, e.st, e.lay, e.f64Out, e.tally, e.result = nil, nil, nil, nil, nil, nil, nil
	e.colLo, e.colHi, e.rowLo, e.rowHi = nil, nil, nil, nil
	e.ws.kvF64.aVal, e.ws.kvF64.bVal = nil, nil
	if e.ws.generic != nil {
		e.ws.generic.unbind()
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
	// ExpandBytes counts the loads and stores the expand loop executes —
	// STREAM's own methodology, so pct_of_stream compares like with like.
	// Each stored nonzero of A is loaded once and held across its inner
	// loop (the float64 layouts stream index+value at the 16-byte COO cost,
	// narrow reads 4-byte values and pattern only the indices; sized from
	// the index arrays because narrow/pattern may pass nil Val; the generic
	// layout is charged as float64). Each FLOP then loads one B element
	// (ColIdx plus the layout's value width) and stores one tuple. This is partition-invariant: band splitting re-runs
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

// runGroups is the paper's algorithm, run once per bin group: plan, expand,
// fold the group's bins with row tallies, and unpack them into the output's
// next entries. With one group — no budget, or one the product fits — it is
// the single-shot run, over all of A's columns whole. The row pointers are one
// prefix sum over the tallies once every group is in.
func (e *engine) runGroups() (*matrix.CSR, error) {
	t0 := time.Now()
	e.planWhole()
	e.planGroups()
	e.st.NGroups = e.ngroups
	if e.ngroups > 1 {
		if err := e.splitColumns(); err != nil {
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
		e.flopsDone += e.ws.binStart[e.nbins]
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
	e.colLo, e.colHi, e.rowLo, e.rowHi = e.a.ColPtr[:k], e.a.ColPtr[1:], e.b.RowPtr[:k], e.b.RowPtr[1:]
	e.colFlops = e.ws.colFlops
	e.binLo, e.binHi = 0, e.nbins
	e.expandPlan()
}

// planGroups cuts the bins into contiguous groups of at most maxKey32Bins
// bins whose expanded tuples — the per-bin flops expandPlan counted over the
// whole product, at the run's tuple bytes — fit MemoryBudgetBytes, leaving
// their bin boundaries in ws.groupStart. A bin over the budget by itself runs
// alone (with any empty bins after it, up to the bin cap). With at most
// maxKey32Bins bins and no budget, or a budget the whole product fits, there
// is exactly one group, and the whole product's plan is its plan.
func (e *engine) planGroups() {
	bs := e.ws.binStart
	gs := append(e.ws.groupStart[:0], 0)
	budget := int64(math.MaxInt64) // in tuples
	if e.opt.MemoryBudgetBytes > 0 {
		budget = e.opt.MemoryBudgetBytes / e.tupleBytes
	}
	if e.flops <= budget && e.nbins <= maxKey32Bins {
		e.maxGroupFlops = e.flops
	} else {
		var cur, maxf int64
		for bin := 0; bin < e.nbins; bin++ {
			f := bs[bin+1] - bs[bin]
			if bin-gs[len(gs)-1] == maxKey32Bins || f > 0 && cur > 0 && cur+f > budget {
				gs, maxf, cur = append(gs, bin), max(maxf, cur), 0
			}
			cur += f
		}
		e.maxGroupFlops = max(maxf, cur)
	}
	e.ws.groupStart = append(gs, e.nbins)
	e.ngroups = len(e.ws.groupStart) - 1
}

// splitColumns cuts each column of A whose row of B is not empty into spans,
// one per group its rows reach, and lays the spans out group by group in
// ws.spans — four planes: colLo, colHi, rowLo, rowHi — with the groups'
// boundaries in ws.spanStart. A's rows ascend in every column (CSC.Validate;
// every conversion the entry points make keeps them so), so a column's
// entries in one group are contiguous, a group's spans come in ascending
// column order, and a group expands its columns in the order the single-shot
// run does; the spans total at most nnz(A). A column whose rows do not ascend
// across groups is an error.
func (e *engine) splitColumns() error {
	a, b, ws, gs := e.a, e.b, e.ws, e.ws.groupStart
	group := matrix.Grow(&ws.binGroup, e.nbins)
	for g := range e.ngroups {
		for bin := gs[g]; bin < gs[g+1]; bin++ {
			group[bin] = int32(g)
		}
	}
	starts := matrix.GrowInt64Zero(&ws.spanStart, e.ngroups+1)
	var n int64
	// Pass 0 counts each group's spans into starts[g+1]; pass 1 writes them,
	// with starts[g] as group g's cursor.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for g := range e.ngroups {
				starts[g+1] += starts[g]
			}
			n = starts[e.ngroups]
			growVals(&ws.spans, 4*n)
		}
		for i := range int(a.NumCols) {
			if b.RowPtr[i] == b.RowPtr[i+1] {
				continue
			}
			prev := int32(-1)
			for p, end := a.ColPtr[i], a.ColPtr[i+1]; p < end; {
				g := group[uint32(a.RowIdx[p])>>e.rowShift]
				if g < prev {
					return fmt.Errorf("core: column %d of A is not sorted by row", i)
				}
				q := p + 1
				for q < end && group[uint32(a.RowIdx[q])>>e.rowShift] == g {
					q++
				}
				if pass == 0 {
					starts[g+1]++
				} else {
					r := starts[g]
					starts[g]++
					ws.spans[r], ws.spans[n+r], ws.spans[2*n+r], ws.spans[3*n+r] = p, q, b.RowPtr[i], b.RowPtr[i+1]
				}
				p, prev = q, g
			}
		}
	}
	// Each cursor ended on the next group's start; rotate them back.
	copy(starts[1:], starts[:e.ngroups])
	starts[0] = 0
	return nil
}

// planGroup lays out the running group of a run with several: its bins, its
// columns (splitColumns' spans), their flops, and from those expandPlan's
// offsets and thread boundaries, balanced on the group's own flops.
func (e *engine) planGroup() {
	ws := e.ws
	e.binLo, e.binHi = ws.groupStart[e.group], ws.groupStart[e.group+1]
	s, t := ws.spanStart[e.group], ws.spanStart[e.group+1]
	n := int64(len(ws.spans) / 4)
	e.colLo, e.colHi = ws.spans[s:t], ws.spans[n+s:n+t]
	e.rowLo, e.rowHi = ws.spans[2*n+s:2*n+t], ws.spans[3*n+s:3*n+t]
	e.colFlops = ws.colFlops[:t-s] // a group has a span a column at most
	for j := range e.colFlops {
		e.colFlops[j] = (e.colHi[j] - e.colLo[j]) * (e.rowHi[j] - e.rowLo[j])
	}
	e.expandPlan()
}

// binGeometry is the bin shape planBinGeometry derives: nbins bins of
// 1<<rowShift rows each, exactly tiling [0, rows).
type binGeometry struct {
	nbins    int
	rowShift uint
}

// planBinGeometry derives the bin geometry (Algorithm 3 line 6) from the
// product's flop count, so each bin fits the L2 budget during sorting — or
// a memory budget, where that is smaller: the one place a budget moves the
// bins, so that a budget under L2 still leaves bins to cut into groups.
// rowsPerBin is rounded up to a power of two so the expand hot loop derives
// bin and local row with shift/mask instead of an integer division
// per flop; nbins is recomputed so bins still exactly tile the rows. The flop
// rule always uses the 16-byte COO tuple cost; only the dense cut below reads
// the run's own, runTupleBytes.
//
// An auto key the LSD sorts in more than two passes (radix.Passes at the mean
// bin) then gets the largest rowShift at which it is two passes (22 bits), if
// that leaves at most min(2048, L2CacheBytes/LocalBinBytes) bins, so expand's
// local bins stay L2-resident (Fig. 5), of radix.FullDigitTuples each; else
// the flop rule stands. It is Section V-A's in-cache bin made exact for the
// sort that runs: er_lowcf (ER 2^16·d8) goes from 64 bins of 26-bit keys
// (three passes over ~2.3 MB, past a 2 MiB L2) to 1 024 of 22, fuse 60–62 →
// 43–46 ms for 3 ms more expand (`experiments fig6b`).
//
// An auto geometry whose mean bin folds dense (denseFold) then gets shorter
// bins, under the same cap, until the fold's working set — accumulator (the
// layout's value bytes a key), bitmap and the bin's tuples — fits
// L2CacheBytes, as Patwary et al. block B's columns for their dense
// accumulator; a cut halves slots and tuples alike, so the bin stays dense.
// rmat_skew goes from 256 bins of 5+13 bits (a 2 MiB accumulator) to 1 024 of
// 3+13 (512 KiB); the pattern layout, whose accumulator is a bitmap, keeps 256.
//
// Last, rowShift is cut to 32 − colBits, the largest local row a 32-bit key
// holds, which makes the key fit whatever the rules above chose — past the
// 2 048-bin cap and past an explicit NBins if it has to (ER 2^20·d2 runs 256
// bins of 12+20 bits, not the flop rule's 64 of 14+20); past maxKey32Bins
// bins, planGroups cuts them into groups. Bytes never depend on the geometry.
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
// holds no pointers: the NT copy writes no GC barriers (generic.flat).
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

// expandPlan computes per-bin flop counts for the running group's columns
// (engine.colLo) with one pass over their entries of A, leaving the exclusive
// prefix in ws.binStart and flop-balanced thread boundaries over
// engine.colFlops in ws.colBounds. The per-thread × per-bin
// counts are exact — each worker's expand range is fixed by colBounds — so
// they are converted in place into exclusive write offsets: thread t's tuples
// for bin b land at binStart[b] + Σ_{t'<t} count(t', b). Expand then needs no
// atomic cursors, flushes are plain copies into pre-reserved ranges, and the
// tuple order in every bin is the sequential column order at any thread
// count (contention-free, deterministic expand). The per-worker arrays
// (ws.perThread, ws.cursors) are sized and indexed by the group's own bins,
// bin − binLo.
func (e *engine) expandPlan() {
	gb := e.binHi - e.binLo
	threads := e.opt.Threads
	binFlops := matrix.GrowInt64Zero(&e.ws.binFlops, e.nbins)
	group := binFlops[e.binLo:e.binHi]
	e.ws.colBounds = par.BalancedBoundariesInto(
		e.colFlops, threads, matrix.Grow(&e.ws.colBounds, threads+1))
	var pt []int64
	if threads == 1 {
		e.countBins(0, len(e.colLo), group)
	} else {
		pt = matrix.GrowInt64Zero(&e.ws.perThread, threads*gb)
		bounds := e.ws.colBounds
		par.ParallelRun(threads, func(t int) {
			e.countBins(bounds[t], bounds[t+1], pt[t*gb:(t+1)*gb])
		})
		for t := 0; t < threads; t++ {
			local := pt[t*gb : (t+1)*gb]
			for bin, c := range local {
				group[bin] += c
			}
		}
	}
	par.PrefixSum(binFlops, matrix.Grow(&e.ws.binStart, e.nbins+1))
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
	a, shift, binLo := e.a, e.rowShift, uint32(e.binLo)
	for j := lo; j < hi; j++ {
		bRow := e.rowHi[j] - e.rowLo[j]
		if bRow == 0 {
			continue
		}
		for p := e.colLo[j]; p < e.colHi[j]; p++ {
			binFlops[uint32(a.RowIdx[p])>>shift-binLo] += bRow
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
	e.ntFlush = simd.HasNT && e.ws.binStart[e.nbins]*e.tupleBytes >= ntMinArenaBytes
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

// assemble unpacks the running group's folded bins (each bin's prefix starts
// at its ws.binStart offset) into the result's next entries, growing it by
// the group's nnz — allocating it on a run's first group. Bins hold disjoint
// ascending row ranges and each bin is sorted, so folded tuples are already
// in global CSR order, and the groups come in row order too; the row
// pointers wait for the last group (runGroups). ws.binOut must be populated.
func (e *engine) assemble(c *matrix.CSR) *matrix.CSR {
	lo, hi := e.binLo, e.binHi
	nnz := par.PrefixSum(e.ws.binOut[lo:hi], matrix.Grow(&e.ws.binOutStart, e.nbins+1)[lo:hi+1])
	c = e.growResult(c, e.outLen+nnz)
	e.result = c
	e.forEachBin(faultinject.SiteAssembleBin, func(e *engine, _, bin int) {
		ws := e.ws
		e.lay.unpackBin(e, e.result, ws.binStart[bin], e.outLen+ws.binOutStart[bin], ws.binOut[bin])
	})
	// An aborted assemble leaves a partial c; the caller's post-phase
	// canceled() check discards it.
	e.outLen += nnz
	return c
}

// forEachBin runs do on every bin of the running group, polling cancellation
// and firing site before each: in bin order on the calling goroutine at
// Threads == 1 (no scheduler, no allocation), else one bin per iteration of a
// dynamic parallel-for whose workers are contained (fault.go). do reads its
// state from the engine: a closure that captured it would escape to the heap.
func (e *engine) forEachBin(site faultinject.Site, do func(e *engine, worker, bin int)) {
	if e.opt.Threads == 1 {
		for bin := e.binLo; bin < e.binHi && !e.pollCancel(); bin++ {
			if faultinject.Enabled {
				faultinject.Fire(site, 0)
			}
			do(e, 0, bin)
		}
		return
	}
	par.ForEachDynamic(e.binHi-e.binLo, e.opt.Threads, func(worker, i int) {
		defer e.containWorker(worker)
		if e.pollCancel() {
			return
		}
		if faultinject.Enabled {
			faultinject.Fire(site, worker)
		}
		do(e, worker, e.binLo+i)
	})
}

// growResult sizes the output for nnzc entries. A run's first group gets it
// fresh — carved from the workspace's pooled output arrays when the
// workspace is shared — and a later group extends it, keeping what the groups
// before it wrote. Value storage is the layout's call: Multiply's float64
// layout backs c.Val, narrow and generic fill a typed out plane their
// entry point returns beside a structural c, and pattern leaves the result
// structural (nil Val).
func (e *engine) growResult(c *matrix.CSR, nnzc int64) *matrix.CSR {
	if c == nil {
		rows, cols := e.a.NumRows, e.b.NumCols
		if e.shared {
			e.ws.out = matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: matrix.GrowInt64Zero(&e.ws.outRowPtr, int(rows)+1)}
			c = &e.ws.out
		} else {
			c = &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, int(rows)+1)}
		}
	}
	c.ColIdx = resultPlane(e, c.ColIdx, &e.ws.outColIdx, nnzc)
	e.lay.growOut(e, c, nnzc)
	if e.f64Out != nil {
		// Multiply's float64 layouts: the out plane IS the result's Val, so
		// unpack writes one destination and the public float64 contract holds.
		c.Val = *e.f64Out
	}
	return c
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
