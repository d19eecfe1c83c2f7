package baseline

import (
	"sync/atomic"

	"pbspgemm/internal/matrix"
)

// Workspace pools every buffer the column SpGEMM baselines need across
// calls, mirroring core.Workspace for the PB engine: buffers are grow-only,
// so a workspace warmed up on the largest multiplication of a workload runs
// subsequent calls of the same or smaller size without heap allocations
// (exactly zero when Threads == 1; a handful of goroutine-spawn allocations
// otherwise).
//
// A Workspace must not be shared by concurrent calls. When a call runs with
// Options.Workspace set, the returned CSR and Stats alias workspace memory
// and are invalidated by the next call using the same workspace; Clone the
// CSR to keep it.
type Workspace struct {
	// Shared two-phase skeleton scratch.
	rowFlops []int64
	rowNNZ   []int64
	bounds   []int
	threads  []scratch

	// cancelled carries the Cancel error one row-kernel worker saw to its
	// siblings; rows holds the row kernel's *rowPool for its most recent value
	// type (rows.go).
	cancelled atomic.Pointer[error]
	rows      any

	// Pooled result storage (used only for shared workspaces).
	out       matrix.CSR
	outRowPtr []int64
	outColIdx []int32
	outVal    []float64

	// stats is returned (by pointer) when the workspace is shared, so
	// steady-state calls do not allocate a Stats either.
	stats Stats
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset drops all pooled memory, returning the workspace to its initial
// empty state.
func (ws *Workspace) Reset() { *ws = Workspace{} }

// scratch is one thread's accumulator storage for the two-phase baselines:
// the versioned marker is the symbolic-phase counter, hashCols/hashVals serve
// the hash variants, and heap the k-way heap merge.
type scratch struct {
	marker   []int32
	hashCols []int32
	hashVals []float64
	heap     []heapEntry
}

// growThreads makes ws.threads at least n entries long, preserving pooled
// per-thread buffers across calls with varying thread counts.
func (ws *Workspace) growThreads(n int) {
	if cap(ws.threads) < n {
		grown := make([]scratch, n)
		copy(grown, ws.threads)
		ws.threads = grown
		return
	}
	ws.threads = ws.threads[:n]
}

// statsFor returns the Stats a call should fill: pooled when shared,
// freshly allocated for one-shot calls (which own their stats).
func (ws *Workspace) statsFor(shared bool) *Stats {
	if !shared {
		return &Stats{}
	}
	ws.stats = Stats{}
	return &ws.stats
}

// newOutput returns the result header with a sized RowPtr, pooled when
// shared.
func (ws *Workspace) newOutput(rows, cols int32, shared bool) *matrix.CSR {
	if !shared {
		return &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, int(rows)+1)}
	}
	ws.out = matrix.CSR{NumRows: rows, NumCols: cols,
		RowPtr: matrix.Grow(&ws.outRowPtr, int(rows)+1)}
	return &ws.out
}

// growOutput sizes the result's index and value arrays once nnz(C) is known.
func (ws *Workspace) growOutput(c *matrix.CSR, nnz int64, shared bool) {
	if !shared {
		c.ColIdx = make([]int32, nnz)
		c.Val = make([]float64, nnz)
		return
	}
	c.ColIdx = matrix.Grow(&ws.outColIdx, int(nnz))
	c.Val = matrix.Grow(&ws.outVal, int(nnz))
}

// DetachOutput hands the last call's pooled result over to the caller: when c
// is this workspace's pooled result header, the returned CSR owns its arrays
// and the pool slots are cleared, so the next call allocates fresh output
// storage (what a Clone would have allocated, without the copy). Any other c
// is returned unchanged.
func (ws *Workspace) DetachOutput(c *matrix.CSR) *matrix.CSR {
	if c != &ws.out {
		return c
	}
	out := ws.out
	ws.out = matrix.CSR{}
	ws.outRowPtr, ws.outColIdx, ws.outVal = nil, nil, nil
	return &out
}

// poll checks the caller's cancellation hook (nil means non-cancellable).
func poll(cancel func() error) error {
	if cancel == nil {
		return nil
	}
	return cancel()
}
