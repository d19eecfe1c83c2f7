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
	// tupleKeys is the expanded-tuple key plane of every layout for one bin
	// group — with its value plane (the pools below) the flops-sized
	// allocation the unbudgeted single-shot algorithm makes per call. A run
	// grows only the value planes of the layout it picked.
	tupleKeys []uint32

	// Plan and phase scratch.
	colFlops []int64
	binFlops []int64
	// perThread holds the exact per-thread × per-bin tuple counts of the
	// running group, converted in place into each worker's exclusive write
	// offsets (and then consumed as its private expand cursors).
	perThread   []int64
	binStart    []int64
	groupStart  []int   // bin group boundaries, ngroups+1
	binGroup    []int32 // the group of each bin (splitColumns)
	spanStart   []int64 // a budgeted run's spans of group g are [spanStart[g], spanStart[g+1])
	spans       []int64 // their four planes (splitColumns)
	colBounds   []int   // thread boundaries over A's columns
	cursors     []int64
	binOut      []int64
	binOutStart []int64
	rowCounts   []int64

	// Propagation-blocking local bins, flattened threads × the running
	// group's bins × capTuples, per layout.
	localKeys []uint32
	localLens []int32

	// Sort-phase scratch, flattened threads × the running group's largest
	// sorted segment (engine.scratchStride), per layout; each worker's slice
	// is private, so the stable scatter sorts never contend. scratchKeys is
	// the pattern layout's key plane, scratchWords the other layouts' two
	// key|index planes per worker, accBits the dense fold's occupancy bitmaps
	// (threads × 1<<keyBits bits, all-zero between bins). Value planes live
	// in the layouts' pools (planes.scratchVals, planes.accVals).
	scratchKeys  []uint32
	scratchWords []uint64
	accBits      []uint64

	// kvF64 pools the float64 value planes of the squeezed (12 B) layout;
	// kvNarrow holds a *kv[V] for the narrow (8 B) layout's most recent
	// value type V (float32 or int32), generic a *generic[V] with the value
	// planes of the generic layout for its most recent V — reuse hits while
	// V is stable.
	kvF64    kv[float64]
	kvNarrow any
	generic  genericPool

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
// buffers in bytes, summed over every layout's pools: MemoryBudgetBytes
// bounds each run's active pool, but a workspace reused across layouts
// (semiring products mixed with float64 ones) holds both, and this
// reports the memory actually resident.
func (ws *Workspace) TupleCapBytes() int64 {
	total := int64(cap(ws.tupleKeys))*4 + ws.kvF64.tupleCapBytes()
	if n, ok := ws.kvNarrow.(interface{ tupleCapBytes() int64 }); ok {
		total += n.tupleCapBytes()
	}
	if ws.generic != nil {
		total += ws.generic.tupleCapBytes()
	}
	return total
}

// DetachOutput hands the last run's pooled result over to the caller. When c
// is this workspace's pooled result — the header Multiply returns on a shared
// workspace, or any header over its RowPtr, as a typed entry point's product
// is — every pooled output plane (RowPtr, ColIdx, each layout's value plane,
// PatternVals) is forgotten, so the next run allocates fresh output storage
// instead of overwriting them: the bytes a Clone would allocate, without the
// copy and without a second resident C. The returned header (c, or a copy of
// the workspace's own) then owns the arrays. Any other c is returned unchanged.
func (ws *Workspace) DetachOutput(c *matrix.CSR) *matrix.CSR {
	if len(c.RowPtr) == 0 || len(ws.out.RowPtr) == 0 || &c.RowPtr[0] != &ws.out.RowPtr[0] {
		return c
	}
	if c == &ws.out {
		out := ws.out
		c = &out
	}
	ws.out, ws.outRowPtr, ws.outColIdx, ws.PatternVals = matrix.CSR{}, nil, nil, nil
	for _, l := range []any{&ws.kvF64, ws.kvNarrow, ws.generic} {
		if l, ok := l.(interface{ detachOut() }); ok {
			l.detachOut()
		}
	}
	return c
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
