package baseline

import (
	"fmt"
	"time"

	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
	"pbspgemm/internal/radix"
)

// ColumnESC computes C = A*B with the column-wise expand-sort-compress
// algorithm (Dalton, Olson, Bell [15]) — the upper-right cell of the paper's
// Table I and the GPU-style ESC the paper contrasts PB-SpGEMM against.
// C-hat is generated row by row (the CSR equivalent of column by column,
// footnote 1 of the paper): for each row i of A the selected rows of B are
// expanded into a per-row segment of the tuple array, then every segment is
// sorted and compressed independently.
//
// Compared to PB-SpGEMM it shares the O(flop) tuple materialization but
// keeps the column algorithms' irregular reads of B and — because segments
// follow output rows rather than cache-sized bins — its sort granularity is
// data-dependent: hypersparse rows under-fill cache lines and heavy rows
// overflow the cache, which is exactly the bandwidth pathology propagation
// blocking removes.
func ColumnESC(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	if a.NumCols != b.NumRows {
		return nil, nil, fmt.Errorf("baseline: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	// Observe an already-expired ctx before any work — in particular before
	// committing the O(flop) tuple-arena allocation below.
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
	start := time.Now()

	// Symbolic: per-row flop counts size the expanded segments exactly.
	rows := int(a.NumRows)
	t0 := time.Now()
	rowFlops := matrix.GrowInt64(&ws.rowFlops, rows)
	if threads == 1 {
		RowFlopsRange(a, b, rowFlops, 0, rows)
	} else {
		par.ForRanges(rows, threads, func(_, lo, hi int) {
			RowFlopsRange(a, b, rowFlops, lo, hi)
		})
	}
	segStart := matrix.GrowInt64(&ws.segStart, rows+1)
	flops := par.PrefixSum(rowFlops, segStart)
	st.Flops = flops
	tuples := radix.GrowPairs(&ws.tuples, flops)
	st.Symbolic = time.Since(t0)
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}

	// Expand + sort + compress, one output row at a time (rows are the
	// parallel unit, matching the original formulation).
	t0 = time.Now()
	bounds := par.BalancedBoundariesInto(rowFlops, threads, matrix.GrowInt(&ws.bounds, threads+1))
	rowOut := matrix.GrowInt64(&ws.rowOut, rows)
	if threads == 1 {
		escRange(a, b, tuples, segStart, rowOut, 0, rows)
	} else {
		par.ParallelRun(threads, func(t int) {
			escRange(a, b, tuples, segStart, rowOut, bounds[t], bounds[t+1])
		})
	}
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}

	// Assemble CSR from the compressed row segments.
	c := ws.newOutput(a.NumRows, b.NumCols, shared)
	nnzc := par.PrefixSum(rowOut, c.RowPtr)
	ws.growOutput(c, nnzc, shared)
	if threads == 1 {
		escAssembleRange(c, tuples, segStart, rowOut, 0, rows)
	} else {
		par.ForRanges(rows, threads, func(_, lo, hi int) {
			escAssembleRange(c, tuples, segStart, rowOut, lo, hi)
		})
	}
	st.Numeric = time.Since(t0)
	st.Total = time.Since(start)
	st.NNZC = nnzc
	if nnzc > 0 {
		st.CF = float64(flops) / float64(nnzc)
	}
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}
	return c, st, nil
}

// escRange expands, sorts and compresses the segments of rows [lo, hi),
// writing per-row output counts into rowOut.
func escRange(a, b *matrix.CSR, tuples []radix.Pair[float64], segStart, rowOut []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		seg := tuples[segStart[i]:segStart[i+1]]
		pos := 0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				seg[pos] = radix.Pair[float64]{Key: uint64(b.ColIdx[q]), Val: av * b.Val[q]}
				pos++
			}
		}
		radix.SortPairsInPlace(seg)
		// Two-pointer compress within the row segment.
		if len(seg) == 0 {
			rowOut[i] = 0
			continue
		}
		p2 := 0
		for p1 := 1; p1 < len(seg); p1++ {
			if seg[p1].Key == seg[p2].Key {
				seg[p2].Val += seg[p1].Val
				continue
			}
			p2++
			seg[p2] = seg[p1]
		}
		rowOut[i] = int64(p2 + 1)
	}
}

// escAssembleRange copies the compressed segments of rows [lo, hi) into the
// final CSR arrays.
func escAssembleRange(c *matrix.CSR, tuples []radix.Pair[float64], segStart, rowOut []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		src := segStart[i]
		dst := c.RowPtr[i]
		for j := int64(0); j < rowOut[i]; j++ {
			c.ColIdx[dst+j] = int32(tuples[src+j].Key)
			c.Val[dst+j] = tuples[src+j].Val
		}
	}
}
