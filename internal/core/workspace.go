package core

import "pbspgemm/internal/matrix"

// Workspace pools every buffer the PB-SpGEMM engine needs across calls.
// Buffers are grow-only: a workspace warmed up on the largest multiplication
// of a workload performs subsequent multiplications of the same or smaller
// size with zero heap allocations (exactly zero when Threads == 1; a handful
// of small goroutine/closure allocations otherwise).
//
// A Workspace must not be shared by concurrent Multiply calls. When a call
// runs with Options.Workspace set, the returned CSR and Stats alias
// workspace memory and are invalidated by the next call that uses the same
// workspace; Clone the CSR to keep it.
type Workspace struct {
	// tupleKeys is the expanded-tuple key plane of every key32 layout
	// (squeezed, narrow, pattern) for one column panel — with its value plane
	// (the kv pools below) the flops-sized allocation the unbudgeted
	// single-shot algorithm makes per call. The wide layout's 16-byte tuples
	// live in its own pool (wide). A run grows only the buffers of the layout
	// it picked.
	tupleKeys []uint32

	// Budgeted-path buffers: folded per-(panel,bin) sorted runs, their
	// metadata, and the planes the runs are gathered into per bin, which take
	// the tuple planes' place for the run's tail (layoutOps.swapGathered) —
	// per layout, like the tuple buffer.
	runKeys     []uint32
	gatherKeys  []uint32
	runLen      int64   // tuples in the active layout's run arena
	runStart    []int64 // run i occupies [runStart[i], runStart[i+1]) of the run arena
	runBins     []int32 // global bin of run i
	runIdx      []int32 // run ids grouped by bin, panel order within a bin
	runIdxStart []int32 // group boundaries into runIdx, len nbins+1

	// Plan and phase scratch.
	colFlops []int64
	binFlops []int64
	// perThread holds the exact per-thread × per-bin tuple counts of the
	// current panel, converted in place into each worker's exclusive write
	// offsets (and then consumed as its private expand cursors).
	perThread   []int64
	binStart    []int64
	panelStart  []int // panel boundaries over A's columns, npanels+1
	colBounds   []int // thread boundaries over the current panel's columns
	cursors     []int64
	binOut      []int64
	binOutStart []int64
	rowCounts   []int64

	// Propagation-blocking local bins, flattened threads × nbins × capTuples,
	// per layout.
	localKeys []uint32
	localLens []int32

	// Sort-phase scratch, flattened threads × the current panel's largest
	// sorted segment (engine.scratchStride), per layout; each worker's slice
	// is private, so the stable scatter sorts never contend. scratchKeys is
	// the pattern layout's key plane, scratchWords the kv layouts' two
	// key|index planes per worker, accBits the dense fold's occupancy bitmaps
	// (threads × 1<<keyBits bits, all-zero between bins). Value planes live
	// in the kv pools (kv.scratchVals, kv.accVals).
	scratchKeys  []uint32
	scratchWords []uint64
	accBits      []uint64

	// kvF64 pools the float64 value planes of the squeezed (12 B) layout;
	// kvNarrow holds a *kv[V] for the narrow (8 B) layout's most recent
	// value type V (float32 or int32), wide a *pairs[V] with every plane of
	// the wide (16 B) layout for its most recent V — reuse hits while V is
	// stable.
	kvF64    kv[float64]
	kvNarrow any
	wide     widePool

	// Pooled result storage (used only for shared workspaces).
	out       matrix.CSR
	outRowPtr []int64
	outColIdx []int32

	// Pooled CSC conversion of A for the CSR-in API, memoized (CSCOf).
	csc matrix.CSCMemo

	// stats is returned (by pointer) from Multiply when the workspace is
	// shared, so steady-state calls do not allocate a Stats either.
	stats Stats

	// eng is the per-call engine state; living inside the workspace keeps it
	// off the per-call heap (closures in the parallel paths capture &eng).
	eng engine

	// poisoned marks a workspace whose last run panicked mid-phase: its
	// pooled planes may hold partially-written state. newEngine fully resets
	// a poisoned workspace before the next run, so reuse is safe; pool owners
	// may also just discard it. Cancelled (non-panic) runs never poison —
	// every run re-plans and rewrites the planes it uses from scratch.
	poisoned bool

	// Aux and PatternVals are the pooled slots of the layer above the engine:
	// internal/semiring keeps its row kernel's scratch in Aux, typed by the
	// semiring's element type (a changed type simply replaces it), and the
	// all-true value plane of a Boolean pattern product in PatternVals — a slot
	// each, so alternating the two on one workspace regrows neither. Reset and
	// a poisoned workspace's reset drop them with everything else.
	Aux         any
	PatternVals []bool
}

// NewWorkspace returns an empty workspace. All buffers are grown on first
// use, so constructing one is free.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset drops all pooled memory, returning the workspace to its initial
// empty state (useful after a one-off huge multiplication).
func (ws *Workspace) Reset() { *ws = Workspace{} }

// TupleCapBytes reports the current capacity of the pooled expanded-tuple
// buffers in bytes, summed over both layouts' pools: MemoryBudgetBytes
// bounds each run's active pool, but a workspace reused across layouts
// (wide-geometry products mixed with squeezed ones) holds both, and this
// reports the memory actually resident.
func (ws *Workspace) TupleCapBytes() int64 {
	total := int64(cap(ws.tupleKeys))*4 + ws.kvF64.tupleCapBytes()
	if n, ok := ws.kvNarrow.(interface{ tupleCapBytes() int64 }); ok {
		total += n.tupleCapBytes()
	}
	if ws.wide != nil {
		total += ws.wide.tupleCapBytes()
	}
	return total
}

// DetachOutput hands the last run's pooled result over to the caller. When c
// is this workspace's pooled result header (what Multiply returns on a shared
// workspace), the returned CSR owns its arrays and the pool slots are
// cleared, so the next run allocates fresh output storage instead of
// overwriting them: the same bytes a Clone would allocate, without the copy
// and without a second resident C. Any other c is returned unchanged.
func (ws *Workspace) DetachOutput(c *matrix.CSR) *matrix.CSR {
	if c != &ws.out {
		return c
	}
	out := ws.out
	ws.out = matrix.CSR{}
	ws.outRowPtr, ws.outColIdx, ws.kvF64.outVal = nil, nil, nil
	if ws.wide != nil {
		ws.wide.detachOut()
	}
	return &out
}

// CSCOf converts a into the workspace's pooled CSC storage, or returns the
// last conversion when a is bit for bit its source (matrix.CSCMemo); the result
// is invalidated by the next call. A poisoned workspace is reset here, as the
// run's own reset would otherwise clear the CSC this call hands it.
func (ws *Workspace) CSCOf(a *matrix.CSR) *matrix.CSC {
	if ws.poisoned {
		ws.Reset()
	}
	return ws.csc.Of(a)
}
