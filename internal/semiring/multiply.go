package semiring

import (
	"fmt"
	"math/bits"
	"unsafe"

	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// pair is one expanded tuple over T.
type pair[T any] struct {
	key uint64
	val T
}

// Options configures the generic engine. The zero value runs single-shot on
// all cores with fresh buffers.
type Options struct {
	// Threads is the worker count for the sort/compress/merge phases;
	// 0 means GOMAXPROCS. Expansion is sequential in the generic path.
	Threads int
	// MemoryBudgetBytes caps the expanded-tuple buffer as in the float64
	// engine (core.Options.MemoryBudgetBytes): columns are tiled into
	// panels, per-panel compressed runs are merged per bin with sr.Plus.
	MemoryBudgetBytes int64
	// Workspace, if non-nil, pools buffers across calls through the
	// workspace's type-erased generic arena (core.GenericSpace). Tuple and
	// value buffers are cached per element type T: reuse hits when T is
	// stable across calls. The returned matrix then aliases workspace memory
	// (except under a plain mask) and is invalidated by the workspace's next call.
	Workspace *core.Workspace
	// Mask, if non-nil, restricts the output structurally (GraphBLAS C⟨M⟩):
	// only positions where Mask stores an entry survive (values ignored).
	// A plain mask runs the row kernel (MultiplyMaskedRows) for every semiring.
	// Mask must be canonical CSR of shape rows(A)×cols(B).
	Mask *matrix.CSR
	// Complement flips the mask (C⟨¬M⟩): keep positions NOT stored in Mask.
	// Ignored when Mask is nil. It keeps nearly the whole product, so it runs
	// the generic engine, filtering each bin right after compression.
	Complement bool
	// Cancel, if non-nil, is polled at phase boundaries (per panel, before
	// the merge and before assembly; every cancelPollRows rows by the row
	// kernel). A non-nil return aborts the multiplication with that error.
	// The typed fast paths poll it once up front only.
	Cancel func() error
	// Plan, if non-nil, is filled with how the call executed: whether a
	// typed fast path ran (and under which tuple layout) or what ran instead
	// and why.
	Plan *Plan
}

// MultiplyOpts computes C = A ⊗ B over the semiring sr with the PB-SpGEMM
// structure (the generic counterpart of internal/core.Multiply) under the full
// execution-engine options, mirroring the float64 engine. Panics — the
// semiring's callbacks run arbitrary user code — are contained into a
// *par.PanicError return rather than unwinding into the caller's process.
func MultiplyOpts[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (c *CSRg[T], err error) {
	defer contain(&c, &err)
	return multiplyOpts(sr, a, b, opt)
}

// contain, deferred, turns a panic of the call into its *par.PanicError.
func contain[T any](c **CSRg[T], err *error) {
	if pe := par.AsPanicError(recover(), -1, "semiring"); pe != nil {
		*c, *err = nil, pe
	}
}

func multiplyOpts[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (*CSRg[T], error) {
	if err := checkShapes(a.NumRows, a.NumCols, b, opt.Mask); err != nil {
		return nil, err
	}
	if opt.Mask != nil && !opt.Complement {
		sc := rowScratchOf[T](opt.Workspace)
		return maskedRows(sr, sc.rowsOf(a), b, opt, sc)
	}
	if c, ran, err := tryFastPath(sr, a, b, opt); ran {
		return c, err
	}
	return multiplyGeneric(sr, a, b, opt)
}

// checkShapes rejects an A (rows × inner) not chaining with b and a mis-shaped mask.
func checkShapes[T any](rows, inner int32, b *CSRg[T], mask *matrix.CSR) error {
	if inner != b.NumRows {
		return fmt.Errorf("semiring: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			rows, inner, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	if mask != nil && (mask.NumRows != rows || mask.NumCols != b.NumCols) {
		return fmt.Errorf("semiring: mask is %dx%d, product is %dx%d: %w",
			mask.NumRows, mask.NumCols, rows, b.NumCols, matrix.ErrShape)
	}
	return nil
}

// multiplyGeneric is the generic engine: expand, sort, fold, filter by the mask
// (a plain one only reaches it from the tests that hold the row kernel to it).
func multiplyGeneric[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (*CSRg[T], error) {
	canceled := func() error {
		if opt.Cancel == nil {
			return nil
		}
		return opt.Cancel()
	}
	threads := par.DefaultThreads(opt.Threads)
	shared := opt.Workspace != nil
	gws := &core.GenericSpace{}
	if shared {
		gws = opt.Workspace.Generic()
	}

	// Symbolic: flop count from the pointer arrays (Algorithm 3).
	k := int(a.NumCols)
	colFlops := matrix.GrowInt64(&gws.ColFlops, k)
	var flops int64
	for i := 0; i < k; i++ {
		colFlops[i] = (a.ColPtr[i+1] - a.ColPtr[i]) * (b.RowPtr[i+1] - b.RowPtr[i])
		flops += colFlops[i]
	}
	if flops == 0 {
		return newResult[T](gws, shared, a.NumRows, b.NumCols, 0), nil
	}
	colBits := uint(bits.Len32(uint32(b.NumCols)))
	if colBits == 0 {
		colBits = 1
	}

	// Panels: tile columns so one panel's tuples fit the budget (the tuple
	// size is T-dependent, so the cut uses the real sizeof).
	tsize := int64(unsafe.Sizeof(pair[T]{}))
	ps := append(gws.PanelStart[:0], 0)
	var maxPanelFlops int64
	budgetTuples := int64(0)
	if opt.MemoryBudgetBytes > 0 {
		budgetTuples = opt.MemoryBudgetBytes / tsize
		if budgetTuples < 1 {
			budgetTuples = 1 // sub-tuple budgets tile maximally, as in core
		}
	}
	if budgetTuples <= 0 || flops <= budgetTuples {
		ps = append(ps, k)
		maxPanelFlops = flops
	} else {
		var cur int64
		for i := 0; i < k; i++ {
			if cur > 0 && cur+colFlops[i] > budgetTuples {
				ps = append(ps, i)
				if cur > maxPanelFlops {
					maxPanelFlops = cur
				}
				cur = 0
			}
			cur += colFlops[i]
		}
		ps = append(ps, k)
		if cur > maxPanelFlops {
			maxPanelFlops = cur
		}
	}
	gws.PanelStart = ps
	npanels := len(ps) - 1
	single := npanels == 1

	// Bin geometry: same L2 sizing and clamps as the float64 engine,
	// derived from the largest panel so every panel's bins fit the cache.
	nbins := int(maxPanelFlops * tsize / (1 << 20))
	if nbins < 1 {
		nbins = 1
	}
	if nbins > 2048 {
		nbins = 2048
	}
	if int64(nbins) > int64(a.NumRows) {
		nbins = int(a.NumRows)
	}
	rowsPerBin := (a.NumRows + int32(nbins) - 1) / int32(nbins)
	if rowsPerBin < 1 {
		rowsPerBin = 1
	}
	nbins = int((a.NumRows + rowsPerBin - 1) / rowsPerBin)

	tuples := growAny[pair[T]](&gws.Tuples, maxPanelFlops)
	binFlops := matrix.GrowInt64(&gws.BinFlops, nbins)
	binStart := matrix.GrowInt64(&gws.BinStart, nbins+1)
	cursor := matrix.GrowInt64(&gws.Cursor, nbins)
	binOut := matrix.GrowInt64(&gws.BinOut, nbins)
	rowCounts := matrix.GrowInt64(&gws.RowCounts, int(a.NumRows)+1)
	clear(rowCounts)

	var runs []pair[T]
	if !single {
		runs, _ = gws.Runs.([]pair[T])
		runs = runs[:0]
		gws.RunBins = gws.RunBins[:0]
		gws.RunStart = gws.RunStart[:0]
	}

	for p := 0; p < npanels; p++ {
		if err := canceled(); err != nil {
			return nil, err
		}
		lo, hi := ps[p], ps[p+1]

		// Per-panel bin extents: one pass over the panel's nonzeros.
		clear(binFlops)
		for i := lo; i < hi; i++ {
			bRow := b.RowPtr[i+1] - b.RowPtr[i]
			if bRow == 0 {
				continue
			}
			for q := a.ColPtr[i]; q < a.ColPtr[i+1]; q++ {
				binFlops[a.RowIdx[q]/rowsPerBin] += bRow
			}
		}
		par.PrefixSum(binFlops, binStart)

		// Expand: sequential over columns (the generic path favours
		// clarity; per-bin cursors advance without atomics).
		copy(cursor, binStart[:nbins])
		for i := lo; i < hi; i++ {
			bLo, bHi := b.RowPtr[i], b.RowPtr[i+1]
			if bLo == bHi {
				continue
			}
			for q := a.ColPtr[i]; q < a.ColPtr[i+1]; q++ {
				r := a.RowIdx[q]
				av := a.Val[q]
				bin := r / rowsPerBin
				localRow := uint64(r-bin*rowsPerBin) << colBits
				c := cursor[bin]
				for w := bLo; w < bHi; w++ {
					tuples[c] = pair[T]{key: localRow | uint64(b.ColIdx[w]), val: sr.Times(av, b.Val[w])}
					c++
				}
				cursor[bin] = c
			}
		}

		// Sort + compress, bins in parallel; the structural mask (if any) is
		// applied to the compressed segment before anything downstream sees
		// it, so unmasked entries never reach the output or the run arena.
		// On single-shot runs the row tallies happen here; budgeted runs
		// tally during the merge, when final per-row counts are known.
		par.ForEachDynamic(nbins, threads, func(_, bin int) {
			firstRow := int32(bin) * rowsPerBin
			seg := tuples[binStart[bin]:binStart[bin+1]]
			sortPairsG(seg)
			out := compressSeg(sr, seg)
			if opt.Mask != nil {
				out = filterSegMask(seg[:out], opt.Mask, opt.Complement, firstRow, colBits)
			}
			binOut[bin] = out
			if single {
				for i := int64(0); i < out; i++ {
					rowCounts[firstRow+int32(seg[i].key>>colBits)+1]++
				}
			}
		})

		if !single {
			runs = appendRunsG(gws, runs, tuples, binStart, binOut, nbins)
		}
	}

	src, srcStart := tuples, binStart
	if !single {
		if err := canceled(); err != nil {
			return nil, err
		}
		gws.Runs = runs
		gws.RunStart = append(gws.RunStart, int64(len(runs)))
		srcStart = mergeRunsG(sr, gws, runs, nbins, rowsPerBin, colBits, threads, binOut, rowCounts)
		src, _ = gws.Merged.([]pair[T])
	}
	if err := canceled(); err != nil {
		return nil, err
	}

	// Assemble.
	binOutStart := matrix.GrowInt64(&gws.BinOutStart, nbins+1)
	nnzc := par.PrefixSum(binOut, binOutStart)
	c := newResult[T](gws, shared, a.NumRows, b.NumCols, nnzc)
	c.RowPtr[0] = 0
	for i := int32(0); i < a.NumRows; i++ {
		c.RowPtr[i+1] = c.RowPtr[i] + rowCounts[i+1]
	}
	colMask := uint64(1)<<colBits - 1
	par.ForEachDynamic(nbins, threads, func(_, bin int) {
		s := srcStart[bin]
		d := binOutStart[bin]
		for j := int64(0); j < binOut[bin]; j++ {
			c.ColIdx[d+j] = int32(src[s+j].key & colMask)
			c.Val[d+j] = src[s+j].val
		}
	})
	return c, nil
}

// filterSegMask drops tuples of a compressed, sorted bin segment according
// to the structural mask: a tuple at global position (row, col) survives iff
// the mask stores an entry there (or does not, under complement). The
// segment is sorted by packed key, so rows appear in ascending order with
// ascending columns inside each row, and the filter is one linear merge of
// the segment against the relevant mask rows. Returns the kept length.
func filterSegMask[T any](seg []pair[T], mask *matrix.CSR, complement bool,
	firstRow int32, colBits uint) int64 {

	colMask := uint64(1)<<colBits - 1
	var w int64
	for i := 0; i < len(seg); {
		rowKey := seg[i].key >> colBits
		row := firstRow + int32(rowKey)
		j := i
		for j < len(seg) && seg[j].key>>colBits == rowKey {
			j++
		}
		mp, mEnd := mask.RowPtr[row], mask.RowPtr[row+1]
		for ; i < j; i++ {
			col := int32(seg[i].key & colMask)
			for mp < mEnd && mask.ColIdx[mp] < col {
				mp++
			}
			stored := mp < mEnd && mask.ColIdx[mp] == col
			if stored != complement {
				seg[w] = seg[i]
				w++
			}
		}
	}
	return w
}

// compressSeg is the two-pointer in-place merge over a sorted segment,
// folding equal keys with sr.Plus. Returns the compressed length.
func compressSeg[T any](sr Semiring[T], seg []pair[T]) int64 {
	if len(seg) == 0 {
		return 0
	}
	p2 := 0
	for p1 := 1; p1 < len(seg); p1++ {
		if seg[p1].key == seg[p2].key {
			seg[p2].val = sr.Plus(seg[p2].val, seg[p1].val)
			continue
		}
		p2++
		seg[p2] = seg[p1]
	}
	return int64(p2 + 1)
}

// appendRunsG copies the current panel's nonempty compressed bin segments
// into the run arena (append's amortized growth, contents preserved),
// recording one sorted duplicate-free run per (panel, bin).
func appendRunsG[T any](gws *core.GenericSpace, runs []pair[T],
	tuples []pair[T], binStart, binOut []int64, nbins int) []pair[T] {

	for bin := 0; bin < nbins; bin++ {
		n := binOut[bin]
		if n == 0 {
			continue
		}
		gws.RunBins = append(gws.RunBins, int32(bin))
		gws.RunStart = append(gws.RunStart, int64(len(runs)))
		runs = append(runs, tuples[binStart[bin]:binStart[bin]+n]...)
	}
	return runs
}

// mergeRunsG groups runs by bin and k-way merges each bin's runs, folding
// duplicates with sr.Plus and tallying per-row output counts. It fills
// binOut with merged sizes and returns the per-bin offsets into the merged
// buffer. Structure mirrors the float64 engine's mergeBins.
func mergeRunsG[T any](sr Semiring[T], gws *core.GenericSpace, runs []pair[T],
	nbins int, rowsPerBin int32, colBits uint, threads int,
	binOut, rowCounts []int64) []int64 {

	nruns := len(gws.RunBins)
	ris := matrix.GrowInt32(&gws.RunIdxStart, nbins+1)
	clear(ris)
	for _, bin := range gws.RunBins {
		ris[bin+1]++
	}
	for bin := 0; bin < nbins; bin++ {
		ris[bin+1] += ris[bin]
	}
	ri := matrix.GrowInt32(&gws.RunIdx, nruns)
	cur := matrix.GrowInt64(&gws.BinFlops, nbins) // free scratch here
	for bin := 0; bin < nbins; bin++ {
		cur[bin] = int64(ris[bin])
	}
	for r, bin := range gws.RunBins {
		ri[cur[bin]] = int32(r)
		cur[bin]++
	}

	ms := matrix.GrowInt64(&gws.MergedStart, nbins+1)
	ms[0] = 0
	maxRuns := 0
	for bin := 0; bin < nbins; bin++ {
		var sum int64
		group := ri[ris[bin]:ris[bin+1]]
		for _, r := range group {
			sum += gws.RunStart[r+1] - gws.RunStart[r]
		}
		ms[bin+1] = ms[bin] + sum
		if len(group) > maxRuns {
			maxRuns = len(group)
		}
	}
	merged := growAny[pair[T]](&gws.Merged, ms[nbins])
	heads := matrix.GrowInt64(&gws.Heads, threads*maxRuns)

	par.ForEachDynamic(nbins, threads, func(worker, bin int) {
		group := ri[ris[bin]:ris[bin+1]]
		kk := len(group)
		dstBase := ms[bin]
		dst := dstBase
		switch kk {
		case 0:
		case 1:
			r := group[0]
			n := gws.RunStart[r+1] - gws.RunStart[r]
			copy(merged[dst:dst+n], runs[gws.RunStart[r]:gws.RunStart[r+1]])
			dst += n
		default:
			hs := heads[worker*maxRuns : worker*maxRuns+kk]
			for i, r := range group {
				hs[i] = gws.RunStart[r]
			}
			for {
				best := -1
				var bestKey uint64
				for i, r := range group {
					h := hs[i]
					if h == gws.RunStart[r+1] {
						continue // run exhausted
					}
					if key := runs[h].key; best < 0 || key < bestKey {
						best, bestKey = i, key
					}
				}
				if best < 0 {
					break
				}
				p := runs[hs[best]]
				hs[best]++
				if dst > dstBase && merged[dst-1].key == p.key {
					merged[dst-1].val = sr.Plus(merged[dst-1].val, p.val)
				} else {
					merged[dst] = p
					dst++
				}
			}
		}
		binOut[bin] = dst - dstBase
		firstRow := int32(bin) * rowsPerBin
		for i := dstBase; i < dst; i++ {
			rowCounts[firstRow+int32(merged[i].key>>colBits)+1]++
		}
	})
	return ms
}

// newResult returns the output matrix: fresh normally, carved from the
// workspace's generic arena when shared.
func newResult[T any](gws *core.GenericSpace, shared bool, rows, cols int32, nnzc int64) *CSRg[T] {
	if !shared {
		return &CSRg[T]{
			NumRows: rows, NumCols: cols,
			RowPtr: make([]int64, rows+1),
			ColIdx: make([]int32, nnzc),
			Val:    make([]T, nnzc),
		}
	}
	rp := matrix.GrowInt64(&gws.OutRowPtr, int(rows)+1)
	clear(rp)
	return &CSRg[T]{
		NumRows: rows, NumCols: cols,
		RowPtr: rp,
		ColIdx: matrix.GrowInt32(&gws.OutColIdx, int(nnzc)),
		Val:    growAny[T](&gws.OutVal, nnzc),
	}
}

// growAny returns a []E of length n backed by the type-erased cache slot,
// reallocating when the cached slice has a different element type or too
// little capacity — the "arena" half of the workspace's GenericSpace.
func growAny[E any](slot *any, n int64) []E {
	if s, ok := (*slot).([]E); ok && int64(cap(s)) >= n {
		s = s[:n]
		*slot = s
		return s
	}
	s := make([]E, n)
	*slot = s
	return s
}
