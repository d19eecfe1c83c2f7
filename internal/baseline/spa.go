package baseline

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// spaPollRows is the number of rows a worker folds between two Cancel polls.
const spaPollRows = 64

// SPA computes C = A*B with the dense sparse accumulator of Gilbert, Moler and
// Schreiber [25] in ONE pass: no symbolic phase (Stats.Symbolic reads 0). Each
// worker owns a contiguous flop-balanced row range, a dense value array over
// B's columns and an occupancy bitmap. A row's products are folded in
// ascending k, an entry's first product assigned and later ones added — the
// chain PB-SpGEMM's fold runs, so on canonical inputs the two produce the same
// bytes — and the row is emitted in column order by walking the bitmap, which
// also returns both arrays to all-zero. Rows are staged in the worker's pooled
// planes; once every count is known they are copied, in parallel, into an
// exactly sized CSR. The accumulator costs 8 B × cols(B) per worker and B's
// rows are fetched once per entry of A: this is the kernel Auto runs while
// those stay cache-resident (roofline.SPACostNS prices it).
func SPA(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	if a.NumCols != b.NumRows {
		return nil, nil, fmt.Errorf("baseline: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, err
	}
	threads := par.DefaultThreads(opt.Threads)
	ws, shared := opt.Workspace, opt.Workspace != nil
	if !shared {
		ws = NewWorkspace()
	}
	st := ws.statsFor(shared)
	start := time.Now()

	rows := int(a.NumRows)
	rowFlops := matrix.GrowInt64(&ws.rowFlops, rows)
	RowFlopsRange(a, b, rowFlops, 0, rows)
	for _, f := range rowFlops {
		st.Flops += f
	}
	bounds := par.BalancedBoundariesInto(rowFlops, threads, matrix.GrowInt(&ws.bounds, threads+1))
	ws.growThreads(threads)
	rowNNZ := matrix.GrowInt64(&ws.rowNNZ, rows)
	ws.cancelled.Store(nil)
	c := ws.newOutput(a.NumRows, b.NumCols, shared)
	if threads == 1 {
		ws.spaRange(a, b, 0, 0, rows, opt.Cancel)
	} else {
		par.ParallelRun(threads, func(t int) { ws.spaRange(a, b, t, bounds[t], bounds[t+1], opt.Cancel) })
	}
	if err := ws.cancelled.Load(); err != nil {
		return nil, nil, *err
	}
	st.NNZC = par.PrefixSum(rowNNZ, c.RowPtr)
	ws.growOutput(c, st.NNZC, shared)
	if threads == 1 {
		ws.threads[0].placeRows(c, 0)
	} else {
		par.ParallelRun(threads, func(t int) { ws.threads[t].placeRows(c, bounds[t]) })
	}
	st.Numeric = time.Since(start)
	st.Total = st.Numeric
	if st.NNZC > 0 {
		st.CF = float64(st.Flops) / float64(st.NNZC)
	}
	return c, st, poll(opt.Cancel)
}

// placeRows copies a worker's staged rows into c, whose first is row lo.
func (sc *scratch) placeRows(c *matrix.CSR, lo int) {
	copy(c.ColIdx[c.RowPtr[lo]:], sc.stageCol)
	copy(c.Val[c.RowPtr[lo]:], sc.stageVal)
}

// emitWord appends the entries of bitmap word wi to the staged row at n, in
// column order, zeroing them, and returns the new end.
func (sc *scratch) emitWord(wi, n int, outCol []int32, outVal []float64) int {
	word := sc.occ[wi]
	sc.occ[wi] = 0
	for base := int32(wi) << 6; word != 0; word &= word - 1 {
		j := base | int32(bits.TrailingZeros64(word))
		outCol[n], outVal[n] = j, sc.dense[j]
		sc.dense[j] = 0
		n++
	}
	return n
}

// spaRange folds rows [lo, hi) on worker t, leaving them back to back in the
// worker's staging planes and their lengths in ws.rowNNZ.
func (ws *Workspace) spaRange(a, b *matrix.CSR, t, lo, hi int, cancel func() error) {
	sc, cols := &ws.threads[t], int(b.NumCols)
	val := matrix.GrowFloat64(&sc.dense, int64(cols))
	occ := matrix.GrowUint64(&sc.occ, (cols+63)/64)
	clear(val) // a cancelled or panicked call may have left a row behind
	clear(occ)
	top := matrix.GrowUint64(&sc.top, (len(occ)+63)/64)
	clear(top)
	outCol, outVal := sc.stageCol[:0], sc.stageVal[:0]
	for i := lo; i < hi; i++ {
		if cancel != nil && (i-lo)%spaPollRows == 0 && ws.cancelled.Load() == nil {
			if err := cancel(); err != nil {
				ws.cancelled.Store(&err)
			}
		}
		if ws.cancelled.Load() != nil {
			break
		}
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteColumnRow, t)
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k, av := a.ColIdx[p], a.Val[p]
			bcols, bvals := b.ColIdx[b.RowPtr[k]:b.RowPtr[k+1]], b.Val[b.RowPtr[k]:b.RowPtr[k+1]]
			for q, j := range bcols {
				// radix.FoldDense's chain: a slot at rest holds +0, so one add
				// assigns every first product but −0.0, which the test restores.
				// The conversion keeps the product rounded (no fused multiply-add).
				v, w, bit := float64(av*bvals[q]), j>>6, uint64(1)<<(j&63)
				sum := val[j] + v
				if sum == 0 && occ[w]&bit == 0 {
					sum = v
				}
				val[j] = sum
				occ[w] |= bit
			}
		}
		n0, most := len(outCol), int(min(ws.rowFlops[i], int64(cols)))
		outCol, outVal = slices.Grow(outCol, most)[:n0+most], slices.Grow(outVal, most)[:n0+most]
		n := n0
		if ws.rowFlops[i] >= int64(len(occ)) {
			for wi := range occ {
				n = sc.emitWord(wi, n, outCol, outVal)
			}
		} else {
			// Fewer products than bitmap words: marking the words they reached, a
			// bit each in top, costs less than looking at every word.
			for _, k := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				for _, j := range b.ColIdx[b.RowPtr[k]:b.RowPtr[k+1]] {
					top[j>>12] |= 1 << (j >> 6 & 63)
				}
			}
			for ti, tw := range top {
				top[ti] = 0
				for ; tw != 0; tw &= tw - 1 {
					n = sc.emitWord(ti<<6|bits.TrailingZeros64(tw), n, outCol, outVal)
				}
			}
		}
		ws.rowNNZ[i] = int64(n - n0)
		outCol, outVal = outCol[:n], outVal[:n]
	}
	sc.stageCol, sc.stageVal = outCol, outVal
}
