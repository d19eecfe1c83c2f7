// Package baseline implements the state-of-the-art column SpGEMM algorithms
// the paper compares against (Section IV-A): HeapSpGEMM, HashSpGEMM,
// HashVecSpGEMM, plus a SPA (dense accumulator) kernel.
//
// The paper's "column" algorithms operate column-by-column on CSC inputs;
// row-by-row on CSR is computationally identical (the paper says so in
// Section II-B, footnote 1), so — like the reference implementations of
// Nagasaka et al. — these run Gustavson row-wise over CSR.
//
// Heap, Hash, HashVec are the paper's figure baselines and share a two-phase
// structure (run): a symbolic pass computes the exact nonzero count of each
// output row (dense-marker based, O(flop)), then the numeric pass merges with
// the algorithm's accumulator directly into the exactly-sized CSR arrays. The
// row kernel (Rows, rows.go) is the competitor the Auto planner runs against
// PB-SpGEMM, for every semiring and under a plain mask; SPA is its float64
// (+, ×) instance. It has one pass: rows are folded into pooled staging and
// copied once into an exactly-sized CSR. Either way rows are distributed over
// threads in contiguous flop-balanced ranges.
//
// Like internal/core, the package is an execution engine, not just a
// reference: all scratch (markers, accumulators, staging, output storage) can
// be pooled in a Workspace for zero steady-state allocations, and a Cancel
// hook is polled at phase boundaries (every 64 rows inside the row kernel's
// pass) so the public Engine can abort calls without leaking goroutines.
package baseline

import (
	"fmt"
	"time"

	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// Options tunes the baseline algorithms.
type Options struct {
	// Threads caps worker goroutines; 0 = GOMAXPROCS.
	Threads int
	// Workspace, if non-nil, pools all scratch and the output arrays across
	// calls. The returned CSR and Stats then alias workspace memory and are
	// invalidated by the next call using the same workspace.
	Workspace *Workspace
	// Cancel, if non-nil, is polled at phase boundaries (after the flop
	// count, after the symbolic pass, and after the numeric pass). A
	// non-nil return aborts the multiplication with that error; in-flight
	// phases run to completion first, so no goroutines leak.
	Cancel func() error
	// Mask, if non-nil, makes the row kernel (SPA, Rows) compute C⟨M⟩: only
	// positions where Mask stores an entry, of shape rows(A)×cols(B). The
	// two-phase baselines have no masked form and are never given one.
	Mask *matrix.CSR
}

// Stats reports the two phases of a column SpGEMM run (SPA has one: its
// Symbolic is 0).
type Stats struct {
	Symbolic, Numeric time.Duration
	Total             time.Duration
	Flops             int64
	NNZC              int64
	CF                float64
}

// GFLOPS returns performance in the paper's metric.
func (s *Stats) GFLOPS() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Total.Seconds() / 1e9
}

// algorithm bundles the numeric-phase hooks of one column accumulator.
// The hooks are top-level functions operating on pooled scratch, so
// selecting an algorithm never allocates.
type algorithm struct {
	// prepare readies one thread's scratch before its numeric range
	// (may be nil).
	prepare func(sc *scratch, a, b *matrix.CSR)
	// merge computes row i of C into dst, returning entries written.
	merge func(sc *scratch, a, b *matrix.CSR, i int32, dstCol []int32, dstVal []float64) int
}

// run executes the shared two-phase skeleton with the given accumulator.
func run(a, b *matrix.CSR, opt Options, alg algorithm) (*matrix.CSR, *Stats, error) {
	if err := checkInner(a, b); err != nil {
		return nil, nil, err
	}
	// Observe an already-expired ctx before any work (the engine used to do
	// this at its call boundary for column kernels).
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}
	threads := par.DefaultThreads(opt.Threads)
	ws := opt.Workspace
	shared := ws != nil
	if !shared {
		ws = NewWorkspace()
	}
	st := ws.statsFor(shared)
	totalStart := time.Now()

	// Row flops for load balancing and the stats.
	rows := int(a.NumRows)
	rowFlops := matrix.Grow(&ws.rowFlops, rows)
	if threads == 1 {
		RowFlopsRange(a, b, rowFlops, 0, rows)
	} else {
		par.ForRanges(rows, threads, func(_, lo, hi int) {
			RowFlopsRange(a, b, rowFlops, lo, hi)
		})
	}
	for _, f := range rowFlops {
		st.Flops += f
	}
	bounds := par.BalancedBoundariesInto(rowFlops, threads, matrix.Grow(&ws.bounds, threads+1))
	ws.growThreads(threads)
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}

	// Symbolic: exact nnz per output row with a per-thread versioned marker.
	t0 := time.Now()
	rowNNZ := matrix.Grow(&ws.rowNNZ, rows)
	if threads == 1 {
		symbolicRange(a, b, &ws.threads[0], rowNNZ, 0, rows)
	} else {
		par.ParallelRun(threads, func(t int) {
			symbolicRange(a, b, &ws.threads[t], rowNNZ, bounds[t], bounds[t+1])
		})
	}
	c := ws.newOutput(a.NumRows, b.NumCols, shared)
	nnzc := par.PrefixSum(rowNNZ, c.RowPtr)
	ws.growOutput(c, nnzc, shared)
	st.Symbolic = time.Since(t0)
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}

	// Numeric: per-algorithm accumulator writes straight into C.
	t0 = time.Now()
	if threads == 1 {
		numericRange(alg, &ws.threads[0], a, b, c, 0, rows)
	} else {
		par.ParallelRun(threads, func(t int) {
			numericRange(alg, &ws.threads[t], a, b, c, bounds[t], bounds[t+1])
		})
	}
	st.Numeric = time.Since(t0)
	st.Total = time.Since(totalStart)
	st.NNZC = nnzc
	if nnzc > 0 {
		st.CF = float64(st.Flops) / float64(nnzc)
	}
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}
	return c, st, nil
}

// checkInner rejects an A whose columns are not B's rows.
func checkInner(a, b *matrix.CSR) error {
	if a.NumCols != b.NumRows {
		return fmt.Errorf("baseline: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	return nil
}

// RowFlopsRange fills rowFlops[lo:hi] with per-row multiplication counts.
func RowFlopsRange(a, b *matrix.CSR, rowFlops []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var f int64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			f += b.RowNNZ(a.ColIdx[p])
		}
		rowFlops[i] = f
	}
}

// symbolicRange counts the exact output nonzeros of rows [lo, hi) with the
// thread's pooled marker (re-initialized per call: stale stamps from a
// previous multiplication could collide with current row ids).
func symbolicRange(a, b *matrix.CSR, sc *scratch, rowNNZ []int64, lo, hi int) {
	marker := matrix.Grow(&sc.marker, int(b.NumCols))
	for i := range marker {
		marker[i] = -1
	}
	for i := lo; i < hi; i++ {
		var cnt int64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				if j := b.ColIdx[q]; marker[j] != int32(i) {
					marker[j] = int32(i)
					cnt++
				}
			}
		}
		rowNNZ[i] = cnt
	}
}

// numericRange merges rows [lo, hi) into c with the algorithm's accumulator.
func numericRange(alg algorithm, sc *scratch, a, b, c *matrix.CSR, lo, hi int) {
	if alg.prepare != nil {
		alg.prepare(sc, a, b)
	}
	for i := lo; i < hi; i++ {
		start, end := c.RowPtr[i], c.RowPtr[i+1]
		if start == end {
			continue
		}
		n := alg.merge(sc, a, b, int32(i), c.ColIdx[start:end], c.Val[start:end])
		if int64(n) != end-start {
			panic(fmt.Sprintf("baseline: row %d numeric nnz %d != symbolic %d", i, n, end-start))
		}
	}
}
