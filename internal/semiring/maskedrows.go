package semiring

import (
	"sync/atomic"

	"pbspgemm/internal/core"
	"pbspgemm/internal/par"
)

// Rows between two Cancel polls; columns of a B row probed per fold of hits.
const cancelPollRows, probeChunk = 64, 64

// rowScratch is the row kernel's pooled state, hung off core.Workspace.Aux per
// element type.
type rowScratch[T any] struct {
	slot []int32 // threads × cols(B): 1 + position in M(r,:) of a column, 0 outside it
	acc  []T     // nnz(M): the folded value of each mask entry
	hit  []bool  // nnz(M): whether any product reached it
	at   CSCg[T] // a column-major A brought back to rows (see rowsOf)
}

func rowScratchOf[T any](ws *core.Workspace) *rowScratch[T] {
	if ws == nil {
		return &rowScratch[T]{}
	}
	sc, ok := ws.Aux.(*rowScratch[T])
	if !ok {
		sc = &rowScratch[T]{}
		ws.Aux = sc
	}
	return sc
}

// rowsOf returns a column-major A by rows: its arrays read as CSR(Aᵀ), whose CSC is CSR(A).
func (sc *rowScratch[T]) rowsOf(a *CSCg[T]) *CSRg[T] {
	at := &CSRg[T]{NumRows: a.NumCols, NumCols: a.NumRows, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	t := at.toCSCInto(&sc.at)
	return &CSRg[T]{NumRows: a.NumRows, NumCols: a.NumCols, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// grow returns (*buf)[:n], reallocating (zeroed) only when capacity is short.
func grow[E any](buf *[]E, n int64) []E {
	if int64(cap(*buf)) < n {
		*buf = make([]E, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// probe looks cols up in slot, lists in hq the positions in cols that hit and
// returns their count. Every probe writes the next free cell and only a hit
// keeps it: a branch per hit mispredicts enough to cost a sixth of the kernel.
func probe(cols, slot []int32, hq *[probeChunk]int32) int {
	n := 0
	for q, col := range cols {
		hq[n%probeChunk] = int32(q) // n ≤ q < probeChunk
		n += int(uint32(-slot[col]) >> 31)
	}
	return n
}

// MultiplyMaskedRows computes C⟨M⟩ = (A ⊗ B) ∘ opt.Mask for a plain mask
// (opt.Complement clear) with A given by rows; MultiplyOpts lands here once
// its column-major A is back in rows. C⟨M⟩ holds at most nnz(M) entries, so
// instead of expanding, sorting and folding every tuple of A·B and dropping
// what M does not store, each row r is driven from its mask row: M(r,:) is
// stamped into a per-worker slot array over B's columns, every a_rk ⊗ b_kc
// probes it, and only hits are folded, into an accumulator shaped like M. No
// tuple arena exists (any memory budget is met); the work is a cache-resident
// probe per flop plus nnz(M) stamps. The one real limit is the slot array,
// 4 B × cols(B) per worker: a DRAM probe per flop once it outgrows the LLC.
// One worker folds a whole row, in ascending k: an entry's first product is
// assigned, later ones folded in with sr.Plus (sr.Zero is never added: a lone
// −0.0 stays −0.0, one that cancels to zero is kept, a mask position nothing
// reaches is absent). So the result is the same at every thread count and,
// over float64 (+, ×), bit-identical to a reference accumulator's under the
// mask. The output is exactly sized and the caller's even with opt.Workspace
// set, which pools everything else.
func MultiplyMaskedRows[T any](sr Semiring[T], a, b *CSRg[T], opt Options) (c *CSRg[T], err error) {
	defer contain(&c, &err)
	if err := checkShapes(a.NumRows, a.NumCols, b, opt.Mask); err != nil {
		return nil, err
	}
	return maskedRows(sr, a, b, opt, rowScratchOf[T](opt.Workspace))
}

// foldArith folds a probe's hits over float64 (+, ×) without the two indirect calls a hit.
func foldArith(acc []float64, hit []bool, av float64, bvals []float64, bcols, slot, hq []int32) (kept int64) {
	for _, q := range hq {
		s, v := slot[bcols[q]]-1, av*bvals[q]
		if hit[s] {
			v += acc[s]
		} else {
			hit[s] = true
			kept++
		}
		acc[s] = v
	}
	return kept
}

func maskedRows[T any](sr Semiring[T], a, b *CSRg[T], opt Options, sc *rowScratch[T]) (*CSRg[T], error) {
	opt.setPlan(Plan{Reason: "plain mask: row-wise masked accumulator"}, nil)
	m := opt.Mask
	rows, cols := int(a.NumRows), int64(b.NumCols)
	threads := max(1, min(par.DefaultThreads(opt.Threads), rows))
	acc, hit := grow(&sc.acc, m.RowPtr[rows]), grow(&sc.hit, m.RowPtr[rows])
	slots := grow(&sc.slot, int64(threads)*cols)
	clear(hit)
	clear(slots) // a cancelled or panicked call may have left stamps behind
	c := &CSRg[T]{NumRows: a.NumRows, NumCols: b.NumCols, RowPtr: make([]int64, rows+1)}
	aF, _ := any(a.Val).([]float64)
	bF, _ := any(b.Val).([]float64)
	accF, _ := any(acc).([]float64)

	// One row at a time: power-law inputs keep their heavy rows together.
	var cancelled atomic.Pointer[error]
	par.ForEachDynamic(rows, threads, func(w, r int) {
		if opt.Cancel != nil && r%cancelPollRows == 0 && cancelled.Load() == nil {
			if err := opt.Cancel(); err != nil {
				cancelled.Store(&err)
			}
		}
		mcols := m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]]
		if len(mcols) == 0 || cancelled.Load() != nil {
			return
		}
		slot := slots[int64(w)*cols : int64(w+1)*cols]
		for j, col := range mcols {
			slot[col] = int32(j) + 1
		}
		racc, rhit := acc[m.RowPtr[r]:m.RowPtr[r+1]], hit[m.RowPtr[r]:m.RowPtr[r+1]]
		var hq [probeChunk]int32
		var kept int64 // stored once: neighbouring rows' counts share cache lines
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			k, av := a.ColIdx[p], a.Val[p]
			for lo, end := b.RowPtr[k], b.RowPtr[k+1]; lo < end; lo += probeChunk {
				hi := min(lo+probeChunk, end)
				bcols, bvals := b.ColIdx[lo:hi], b.Val[lo:hi]
				hits := hq[:probe(bcols, slot, &hq)]
				if sr.kind == kindArithF64 && accF != nil {
					kept += foldArith(accF[m.RowPtr[r]:m.RowPtr[r+1]], rhit, aF[p], bF[lo:hi], bcols, slot, hits)
					continue
				}
				for _, q := range hits {
					s, v := slot[bcols[q]]-1, sr.Times(av, bvals[q])
					if rhit[s] {
						v = sr.Plus(racc[s], v)
					} else {
						rhit[s] = true
						kept++
					}
					racc[s] = v
				}
			}
		}
		for _, col := range mcols {
			slot[col] = 0
		}
		c.RowPtr[r+1] = kept
	})
	if err := cancelled.Load(); err != nil {
		return nil, *err
	}

	nnzc := par.PrefixSum(c.RowPtr[1:], c.RowPtr) // in place: counts become offsets
	c.ColIdx, c.Val = make([]int32, nnzc), make([]T, nnzc)
	par.ForChunksDynamic(rows, threads, 1024, func(_, lo, hi int) {
		d := c.RowPtr[lo]
		for j := m.RowPtr[lo]; j < m.RowPtr[hi]; j++ {
			if hit[j] {
				c.ColIdx[d], c.Val[d] = m.ColIdx[j], acc[j]
				d++
			}
		}
	})
	return c, nil
}
