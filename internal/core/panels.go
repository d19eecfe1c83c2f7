package core

import (
	"time"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
)

// This file is the memory-budgeted execution path: A's columns are tiled
// into panels whose expanded tuples fit Options.MemoryBudgetBytes, each
// panel runs the expand-sort-compress pipeline of the single-shot algorithm
// and leaves one folded, sorted run per nonempty bin in the run arena. After
// the last panel every bin's runs are gathered, in panel order, into one
// contiguous segment, and the run ends in the single-shot tail: the same
// sort/fold kernels and the same assemble, over the gathered bins.
//
// That tail produces the bytes a k-way merge of the runs would: a bin's
// concatenated runs are tuples in arrival order, a run holds each key at most
// once, and the stable kernels fold an equal-key group as "first value
// assigned, later values added" — the per-panel sums, combined in panel order.
//
// The tuple buffer — the flops×16-byte allocation that makes the paper's
// single-shot design infeasible when the expansion exceeds RAM — is bounded
// by the largest panel. The run arena and the gathered planes hold only
// compressed tuples, whose total is at most Σ_p nnz(C_p) ≤ flops but is near
// nnz(C) whenever panels capture duplicate folding, so the working set tracks
// the output rather than the expansion.

// runBudgeted executes the multi-panel pipeline. Caller guarantees
// npanels >= 2 and flops > 0.
func (e *engine) runBudgeted() (*matrix.CSR, error) {
	ws := e.ws
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteGrow, -1)
	}
	e.lay.growTuples(e, e.maxPanelFlops)
	ws.runKeys = ws.runKeys[:0]
	e.lay.resetRuns(e)
	ws.runLen = 0
	ws.runStart = ws.runStart[:0]
	ws.runBins = ws.runBins[:0]

	for p := 0; p < e.npanels; p++ {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		lo, hi := ws.panelStart[p], ws.panelStart[p+1]

		e.phase = "plan"
		t0 := time.Now()
		e.panelPlan(lo, hi)
		e.st.Symbolic += time.Since(t0)

		e.phase = "expand"
		t0 = time.Now()
		e.expandPanel(lo)
		e.st.Expand += time.Since(t0)

		// Row tallies wait for the tail, when a row's final count is known.
		if err := e.foldBins(nil); err != nil {
			return nil, err
		}
		t0 = time.Now()
		e.appendRuns()
		e.st.Merge += time.Since(t0)
	}
	ws.runStart = append(ws.runStart, ws.runLen) // closing boundary
	if err := e.canceled(); err != nil {
		return nil, err
	}

	// The tail: lay the bins out over the run totals, let the gathered planes
	// stand in for the tuple planes (so the budget-capped tuple buffer is never
	// grown past its largest panel), copy the runs in, and finish as a
	// single-shot run does.
	e.phase = "merge"
	t0 := time.Now()
	total := e.groupRuns()
	e.lay.swapGathered(e)
	defer e.lay.swapGathered(e) // on every exit, a worker's rethrown panic included
	e.lay.growTuples(e, total)
	e.forEachBin(faultinject.SiteMergeBin, gatherBin)
	e.st.Merge += time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	return e.foldAndAssemble()
}

// appendRuns copies the current panel's nonempty compressed bin segments
// into the run arena, recording one sorted, duplicate-free run per
// (panel, bin). Growth is append's amortized doubling; in steady state the
// pooled capacity suffices and nothing allocates.
func (e *engine) appendRuns() {
	ws := e.ws
	for bin := 0; bin < e.nbins; bin++ {
		n := ws.binOut[bin]
		if n == 0 {
			continue
		}
		ws.runBins = append(ws.runBins, int32(bin))
		ws.runStart = append(ws.runStart, ws.runLen)
		e.lay.appendRun(e, ws.binStart[bin], n)
		ws.runLen += n
	}
}

// groupRuns counting-sorts run ids by bin (runs were appended panel-major, so
// a bin's group stays in panel order) and lays the tail's bins out in
// ws.binStart: bin b gathers into [binStart[b], binStart[b+1]), sized by its
// total run length. Returns the total, the tail's tuple count.
func (e *engine) groupRuns() int64 {
	ws := e.ws
	ris := matrix.Grow(&ws.runIdxStart, e.nbins+1)
	clear(ris)
	bs := matrix.GrowInt64Zero(&ws.binStart, e.nbins+1)
	for r, bin := range ws.runBins {
		ris[bin+1]++
		bs[bin+1] += ws.runStart[r+1] - ws.runStart[r]
	}
	for bin := 0; bin < e.nbins; bin++ {
		ris[bin+1] += ris[bin]
		bs[bin+1] += bs[bin]
	}
	ri := matrix.Grow(&ws.runIdx, len(ws.runBins))
	cur := matrix.Grow(&ws.localLens, e.nbins) // free scratch after the last expand
	copy(cur, ris)
	for r, bin := range ws.runBins {
		ri[cur[bin]] = int32(r)
		cur[bin]++
	}
	return bs[e.nbins]
}

// gatherBin copies a bin's runs, in panel order, into the bin's segment of
// the tuple planes. Bins are independent, so they run under the same
// schedule as assemble.
func gatherBin(e *engine, _, bin int) {
	ws := e.ws
	dst := ws.binStart[bin]
	for _, r := range ws.runIdx[ws.runIdxStart[bin]:ws.runIdxStart[bin+1]] {
		n := ws.runStart[r+1] - ws.runStart[r]
		e.lay.gatherRun(e, ws.runStart[r], dst, n)
		dst += n
	}
}
