package baseline

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// Rows between two Cancel polls; columns of a B row taken at a time.
const pollRows, chunk = 64, 64

// Ops is the algebra Rows folds with, a chunk of a B row at a time: Times sets
// dst[q] = a ⊗ b[q] (dst may be b), and Fold folds x[q] into acc[at[q]] for
// every q — assigning it where seen[q] is 0 (an entry's first product), else
// acc[at[q]] ⊕ x[q]. Arith declares V float64 and (⊕, ⊗) = (+, ×): the typed
// loop runs instead and neither function is called. Ops{} is a structural
// product (Boolean over all-true operands, never masked): nothing is formed,
// folded or returned but the pattern.
type Ops[V any] struct {
	Times func(dst []V, a V, b []V)
	Fold  func(acc []V, at []int32, x []V, seen []byte)
	Arith bool
}

// SPA is Rows over float64 (+, ×): C = A·B, or C⟨M⟩ under opt.Mask. On a shared
// workspace the product is pooled, like every baseline's.
func SPA(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	var out *[]float64
	if opt.Workspace != nil {
		out = &opt.Workspace.outVal
	}
	c, val, st, err := rows(a, b, a.Val, b.Val, Ops[float64]{Arith: true}, opt, out)
	if c != nil {
		c.Val = val
	}
	return c, st, err
}

// Rows computes C = A ⊗ B, or C⟨M⟩ = (A ⊗ B) ∘ opt.Mask, row by row with
// Gilbert, Moler and Schreiber's sparse accumulator [25], in one pass: no
// symbolic phase (Stats.Symbolic reads 0). A and B are index-only headers, their
// values aVal and bVal; the product's values come back beside it, and both
// belong to the caller even on a shared workspace. Each worker owns a
// contiguous flop-balanced row range and folds a whole row, its products in
// ascending k — an entry's first product assigned, each later one folded in
// with ⊕, the chain PB-SpGEMM's fold runs — so the result is the same at every
// thread count and, over (+, ×), bit-identical to PB's on canonical inputs.
//
// The accumulator. Under a plain mask, M(i,:) is stamped into a slot array over
// B's columns (4 B each), every chunk of a B row probes it, and only hits are
// folded, into an accumulator shaped like M(i,:), emitted in its order.
// Without one, a dense value plane over B's columns (none for a structural
// product) and an occupancy mark chosen per row from the row itself: a row of
// at least cols(B)/8 products marks its columns with plain byte stores and is
// emitted 8 columns per load, a sparser one sets bits of a bitmap, decoded
// without a branch per bit (emitWords). The bitmap's read-modify-write is a
// store-to-load chain wherever consecutive products share a 64-column word —
// about eight of them do at 128 of 1 024 columns per B row — and a byte store
// starts none: er_highcf_auto's op went 50.6 → 35.1 ms (medians of ten pairs).
// Measured dead ends (one thread): byte marks on every row, the bitmap rebuilt
// by a second walk for the emit, cost sparse rows a quarter (ER 2¹²·d8 3.7 →
// 4.7 ms, ER 2¹⁶·d8 85 → 106 ms); at about one product per word (ER 4 096·d64)
// bytes neither gain nor lose (120 → 119 ms), as there is no chain there.
//
// Rows are staged in the worker's pooled planes, which become the product
// once every count is known (output). Cancel is polled every pollRows rows,
// the column-row fault site fires per row, and a panic — ⊕ and ⊗ run caller
// code on worker goroutines — comes back as a *par.PanicError.
func Rows[V any](a, b *matrix.CSR, aVal, bVal []V, ops Ops[V], opt Options) (*matrix.CSR, []V, *Stats, error) {
	return rows(a, b, aVal, bVal, ops, opt, nil)
}

// rows is Rows with the product's values pooled in *out when out is non-nil.
func rows[V any](a, b *matrix.CSR, aVal, bVal []V, ops Ops[V], opt Options, out *[]V) (c *matrix.CSR, val []V, st *Stats, err error) {
	defer func() {
		if pe := par.AsPanicError(recover(), -1, "rows"); pe != nil {
			c, val, st, err = nil, nil, nil, pe
		}
	}()
	if err := checkInner(a, b); err != nil {
		return nil, nil, nil, err
	}
	if m := opt.Mask; m != nil && (m.NumRows != a.NumRows || m.NumCols != b.NumCols) {
		return nil, nil, nil, fmt.Errorf("baseline: mask is %dx%d, product is %dx%d: %w",
			m.NumRows, m.NumCols, a.NumRows, b.NumCols, matrix.ErrShape)
	}
	if err := poll(opt.Cancel); err != nil {
		return nil, nil, nil, err
	}
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	p := poolOf[V](ws)
	defer func() { p.rowKernel = rowKernel[V]{} }() // drop the caller's matrices
	p.rowKernel = rowKernel[V]{a: a, b: b, mask: opt.Mask, aVal: aVal, bVal: bVal, ops: ops, cancel: opt.Cancel, ws: ws}
	return p.run(opt, out)
}

// rowKernel is one call's bindings. arith is the kernel itself, bound once per
// call under Ops.Arith, and selects the typed (+, ×) loops (nil: the generic
// ones); they are called directly, as a call per B row through a function
// value cost the masked product 5 %.
type rowKernel[V any] struct {
	a, b, mask *matrix.CSR
	aVal, bVal []V
	ops        Ops[V]
	cancel     func() error
	ws         *Workspace
	arith      *rowKernel[float64]
}

// rowScratch is one worker's accumulator and staging. Under a mask val is
// M(i,:)'s accumulator and mark says which of its entries a product reached.
type rowScratch[V any] struct {
	val      []V      // the value plane over B's columns, at rest between rows
	mark     []byte   // dense rows' occupancy, a byte per column
	occ, top []uint64 // sparse rows' occupancy bitmap, and a bit per word of it
	slot     []int32  // 1 + position in M(i,:) of each column of B, 0 outside it
	prod     [chunk]V
	hq, at   [chunk]int32 // a probe's hits: positions in the chunk, and in M(i,:)
	seen     [chunk]byte  // whether a chunk's product has an entry to fold into
	stageCol []int32
	stageVal []V
}

// rowPool is a workspace's row-kernel state for its most recent V.
type rowPool[V any] struct {
	rowKernel[V]
	sc []rowScratch[V]
}

func poolOf[V any](ws *Workspace) *rowPool[V] {
	p, ok := ws.rows.(*rowPool[V])
	if !ok {
		p = &rowPool[V]{}
		ws.rows = p
	}
	return p
}

func (p *rowPool[V]) run(opt Options, out *[]V) (*matrix.CSR, []V, *Stats, error) {
	k, ws, shared := &p.rowKernel, p.ws, opt.Workspace != nil
	threads := par.DefaultThreads(opt.Threads)
	st := ws.statsFor(shared)
	start := time.Now()
	n := int(k.a.NumRows)
	rowFlops := matrix.Grow(&ws.rowFlops, n)
	RowFlopsRange(k.a, k.b, rowFlops, 0, n)
	for _, f := range rowFlops {
		st.Flops += f
	}
	bounds := par.BalancedBoundariesInto(rowFlops, threads, matrix.Grow(&ws.bounds, threads+1))
	if len(p.sc) < threads {
		p.sc = append(p.sc, make([]rowScratch[V], threads-len(p.sc))...)
	}
	sc := p.sc[:threads]
	matrix.Grow(&ws.rowNNZ, n)
	ws.cancelled.Store(nil)
	if k.ops.Arith {
		k.arith, _ = any(k).(*rowKernel[float64])
	}
	if threads == 1 {
		k.span(&sc[0], 0, 0, n)
	} else {
		par.ParallelRun(threads, func(t int) { k.span(&sc[t], t, bounds[t], bounds[t+1]) })
	}
	if err := ws.cancelled.Load(); err != nil {
		return nil, nil, nil, *err
	}

	c := ws.newOutput(k.a.NumRows, k.b.NumCols, out != nil)
	st.NNZC = par.PrefixSum(ws.rowNNZ, c.RowPtr)
	val := k.output(c, sc, bounds, out)
	st.Numeric = time.Since(start)
	st.Total = st.Numeric
	if st.NNZC > 0 {
		st.CF = float64(st.Flops) / float64(st.NNZC)
	}
	return c, val, st, poll(opt.Cancel)
}

// output gives c its column indices and returns its values: pooled in *out,
// if given, else fresh (none for a structural product). One worker's staging
// planes are the product, copied into the pool or cloned (matrix.Refill): a
// clone is not zeroed first, as make's plane was before the copy overwrote it
// (0.4 ms of SPA's ~4.2 on ER 2¹²·d8). More workers' rows are copied, in
// parallel, into planes of exactly nnz(C).
func (k *rowKernel[V]) output(c *matrix.CSR, sc []rowScratch[V], bounds []int, out *[]V) []V {
	cols, nnz, val := &k.ws.outColIdx, int(c.RowPtr[c.NumRows]), []V(nil)
	if out == nil {
		cols, out = new([]int32), new([]V) // fresh planes
	}
	if len(sc) == 1 {
		if c.ColIdx = matrix.Refill(cols, sc[0].stageCol); k.values() {
			val = matrix.Refill(out, sc[0].stageVal)
		}
		return val
	}
	if c.ColIdx = matrix.Grow(cols, nnz); k.values() {
		val = matrix.Grow(out, nnz)
	}
	par.ParallelRun(len(sc), func(t int) { sc[t].place(c, val, bounds[t]) })
	return val
}

func (k *rowKernel[V]) values() bool { return k.ops.Arith || k.ops.Times != nil }

// dense: row i has at least cols(B)/8 products, and marks with bytes.
func (k *rowKernel[V]) dense(i int) bool { return 8*k.ws.rowFlops[i] >= int64(k.b.NumCols) }

// place copies a worker's staged rows into c, whose first is row lo.
func (sc *rowScratch[V]) place(c *matrix.CSR, val []V, lo int) {
	copy(c.ColIdx[c.RowPtr[lo]:], sc.stageCol)
	if val != nil {
		copy(val[c.RowPtr[lo]:], sc.stageVal)
	}
}

// span folds rows [lo, hi) on worker t, leaving them back to back in sc's
// staging planes and their lengths in ws.rowNNZ.
func (k *rowKernel[V]) span(sc *rowScratch[V], t, lo, hi int) {
	ws, cols, values := k.ws, int(k.b.NumCols), k.values()
	// A cancelled or panicked call may have left a row behind.
	clear(sc.mark[:cap(sc.mark)])
	if k.mask != nil {
		clear(matrix.Grow(&sc.slot, cols))
	} else {
		if values {
			clear(matrix.Grow(&sc.val, cols))
		}
		matrix.Grow(&sc.mark, (cols+7)&^7)
		clear(matrix.Grow(&sc.occ, (cols+63)/64))
		clear(matrix.Grow(&sc.top, (cols+4095)/4096))
	}
	outCol, outVal := sc.stageCol[:0], sc.stageVal[:0]
	for i := lo; i < hi; i++ {
		if k.cancel != nil && (i-lo)%pollRows == 0 && ws.cancelled.Load() == nil {
			if err := k.cancel(); err != nil {
				ws.cancelled.Store(&err)
			}
		}
		if ws.cancelled.Load() != nil {
			break
		}
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteColumnRow, t)
		}
		n0, most := len(outCol), int(min(ws.rowFlops[i], int64(cols)))
		outCol = slices.Grow(outCol, most+emitSlack)[:n0+most+emitSlack]
		var dst []V
		if values {
			outVal = slices.Grow(outVal, most)[:n0+most]
			dst = outVal[n0:]
		}
		n := k.row(sc, i, outCol[n0:], dst)
		ws.rowNNZ[i] = int64(n)
		outCol, outVal = outCol[:n0+n], outVal[:min(len(outVal), n0+n)]
	}
	sc.stageCol, sc.stageVal = outCol, outVal
}

// row folds row i and writes it, in column order, to col and (unless the
// product is structural) val, returning its length.
func (k *rowKernel[V]) row(sc *rowScratch[V], i int, col []int32, val []V) int {
	if k.mask != nil {
		return k.masked(sc, i, col, val)
	}
	if k.arith != nil {
		foldArith(k.arith, any(sc).(*rowScratch[float64]), i)
	} else {
		k.foldRow(sc, i)
	}
	var n int
	if k.dense(i) {
		n = emitMarks(sc.mark, col)
	} else {
		n = k.emitBits(sc, i, col)
	}
	if val != nil {
		var zero V
		for p, j := range col[:n] {
			val[p], sc.val[j] = sc.val[j], zero
		}
	}
	return n
}

// foldArith folds row i over float64 (+, ×) with radix.FoldDense's chain: a
// slot at rest holds +0, so one add assigns every first product but −0.0,
// which the mark test restores. The conversion keeps the product rounded (no
// fused multiply-add).
func foldArith(k *rowKernel[float64], sc *rowScratch[float64], i int) {
	a, b, val, mark, occ := k.a, k.b, sc.val, sc.mark, sc.occ
	dense := k.dense(i)
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		lo, hi, av := b.RowPtr[a.ColIdx[p]], b.RowPtr[a.ColIdx[p]+1], k.aVal[p]
		bvals := k.bVal[lo:hi]
		if dense {
			for q, j := range b.ColIdx[lo:hi] {
				v := float64(av * bvals[q])
				sum := val[j] + v
				if sum == 0 && mark[j] == 0 {
					sum = v
				}
				val[j], mark[j] = sum, 1
			}
			continue
		}
		for q, j := range b.ColIdx[lo:hi] {
			v, w, bit := float64(av*bvals[q]), j>>6, uint64(1)<<(j&63)
			sum := val[j] + v
			if sum == 0 && occ[w]&bit == 0 {
				sum = v
			}
			val[j] = sum
			occ[w] |= bit
		}
	}
}

// foldRow is foldArith for any ⊗ and ⊕, a chunk of products at a time; a
// structural product only marks. A chunk's columns are distinct, so it is
// marked first, and then ⊗ and ⊕ each run once over it: a function value
// called per product costs more than the rest of the fold (MinPlus through its
// scalar functions ran 22 ms where its chunk loops run 12), and the stock
// semirings' chunk loops call none (a caller's ⊕ and ⊗ still are, inside).
func (k *rowKernel[V]) foldRow(sc *rowScratch[V], i int) {
	a, b, times := k.a, k.b, k.ops.Times
	val, mark, occ, seen := sc.val, sc.mark, sc.occ, &sc.seen
	dense := k.dense(i)
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		for lo, end := b.RowPtr[a.ColIdx[p]], b.RowPtr[a.ColIdx[p]+1]; lo < end; lo += chunk {
			bcols := b.ColIdx[lo:min(lo+chunk, end)]
			for q, j := range bcols {
				if dense {
					seen[q], mark[j] = mark[j], 1
				} else {
					w := j >> 6
					seen[q], occ[w] = byte(occ[w]>>(j&63)&1), occ[w]|1<<(j&63)
				}
			}
			if times == nil {
				continue
			}
			prod := sc.prod[:len(bcols)]
			times(prod, k.aVal[p], k.bVal[lo:lo+int64(len(bcols))])
			k.ops.Fold(val, bcols, prod, seen[:len(bcols)])
		}
	}
}

// emitMarks writes the columns marked in mark to col in ascending order,
// clearing them, and returns their count.
func emitMarks(mark []byte, col []int32) int {
	n := 0
	for w := 0; w < len(mark); w += 8 {
		word := binary.LittleEndian.Uint64(mark[w:])
		if word == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(mark[w:], 0)
		for ; word != 0; word &= word - 1 {
			col[n] = int32(w + bits.TrailingZeros64(word)>>3)
			n++
		}
	}
	return n
}

// emitBits writes the columns set in the bitmap to col in ascending order,
// clearing them: every word, or — when row i has fewer products than the
// bitmap has words — only those its products reached, marked a bit each in
// top by a second walk over its B column ids.
func (k *rowKernel[V]) emitBits(sc *rowScratch[V], i int, col []int32) int {
	a, b, occ, top, n := k.a, k.b, sc.occ, sc.top, 0
	if k.ws.rowFlops[i] >= int64(len(occ)) {
		return emitWords(occ, 0, len(occ), col, 0)
	}
	for _, kk := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
		for _, j := range b.ColIdx[b.RowPtr[kk]:b.RowPtr[kk+1]] {
			top[j>>12] |= 1 << (j >> 6 & 63)
		}
	}
	for ti, tw := range top {
		top[ti] = 0
		for ; tw != 0; tw &= tw - 1 {
			wi := ti<<6 | bits.TrailingZeros64(tw)
			n = emitWords(occ, wi, wi+1, col, n)
		}
	}
	return n
}

// emitSlack is the room past a row's last column emitWords may write into.
const emitSlack = 4

// emitWords writes the columns of bitmap words [lo, hi) to col from n,
// clearing them, and returns n plus their count. Four slots are written
// whatever a word holds, the unused ones into col's emitSlack, and only bits
// past four loop (Langdale and Lemire's branch-free bitset decoding): a loop
// per set bit mispredicted its exit on most words, ~40 % of SPA's time on
// ER 2¹²·d8. The four stores are unrolled: as a loop they cost a quarter more.
func emitWords(occ []uint64, lo, hi int, col []int32, n int) int {
	for wi := lo; wi < hi; wi++ {
		word, base, next := occ[wi], int32(wi)<<6, n+bits.OnesCount64(occ[wi])
		occ[wi] = 0
		d := (*[emitSlack]int32)(col[n:])
		d[0], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		d[1], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		d[2], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		d[3], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		for q := n + emitSlack; word != 0; word &= word - 1 {
			col[q] = base | int32(bits.TrailingZeros64(word))
			q++
		}
		n = next
	}
	return n
}

// masked folds row i of C⟨M⟩ and writes its entries in M(i,:)'s order.
func (k *rowKernel[V]) masked(sc *rowScratch[V], i int, col []int32, val []V) int {
	m, a, b := k.mask, k.a, k.b
	mcols := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
	if len(mcols) == 0 {
		return 0
	}
	slot, hq, sa := sc.slot, &sc.hq, (*rowScratch[float64])(nil)
	for s, c := range mcols {
		slot[c] = int32(s) + 1
	}
	if k.arith != nil {
		sa = any(sc).(*rowScratch[float64])
	}
	acc, hit := matrix.Grow(&sc.val, len(mcols)), matrix.Grow(&sc.mark, len(mcols))
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		for lo, end := b.RowPtr[a.ColIdx[p]], b.RowPtr[a.ColIdx[p]+1]; lo < end; lo += chunk {
			hits := hq[:probe(b.ColIdx[lo:min(lo+chunk, end)], slot, hq)]
			if sa != nil {
				foldHitsArith(k.arith, sa, p, lo, hits)
			} else {
				k.foldProbe(sc, p, lo, hits)
			}
		}
	}
	n := 0
	for s, c := range mcols {
		slot[c] = 0
		if hit[s] != 0 {
			hit[s] = 0
			col[n], val[n] = c, acc[s]
			n++
		}
	}
	return n
}

// probe looks cols up in slot, lists in hq the positions in cols that hit and
// returns their count. Every probe writes the next free cell and only a hit
// keeps it: a branch per hit mispredicts enough to cost a sixth of the kernel.
func probe(cols, slot []int32, hq *[chunk]int32) int {
	n := 0
	for q, col := range cols {
		hq[n%chunk] = int32(q) // n ≤ q < chunk
		n += int(uint32(-slot[col]) >> 31)
	}
	return n
}

// foldHitsArith folds one probe's hits — positions in B's row from lo — of
// a_p·B into M(i,:)'s accumulator.
func foldHitsArith(k *rowKernel[float64], sc *rowScratch[float64], p, lo int64, hits []int32) {
	av, bcols, bvals, acc, hit := k.aVal[p], k.b.ColIdx[lo:], k.bVal[lo:], sc.val, sc.mark
	for _, q := range hits {
		s, v := sc.slot[bcols[q]]-1, float64(av*bvals[q])
		if hit[s] != 0 {
			v += acc[s]
		}
		acc[s], hit[s] = v, 1
	}
}

// foldProbe is foldHitsArith for any ⊗ and ⊕: the hits' B values are gathered
// and go through ⊗ and ⊕ in one call each.
func (k *rowKernel[V]) foldProbe(sc *rowScratch[V], p, lo int64, hits []int32) {
	bcols, bvals, hit := k.b.ColIdx[lo:], k.bVal[lo:], sc.mark
	prod, at, seen := sc.prod[:len(hits)], sc.at[:len(hits)], sc.seen[:len(hits)]
	for h, q := range hits {
		s := sc.slot[bcols[q]] - 1
		prod[h], at[h], seen[h], hit[s] = bvals[q], s, hit[s], 1
	}
	k.ops.Times(prod, k.aVal[p], prod)
	k.ops.Fold(sc.val, at, prod, seen)
}
