package core

import (
	"errors"
	"fmt"
	"unsafe"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
	"pbspgemm/internal/simd"
)

// This file is the value-width-generic layout layer. The paper's traffic
// argument — SpGEMM is bandwidth-bound, so bytes-per-tuple is the lever —
// does not stop at the 12-byte squeezed layout: a Boolean/structural product
// never reads its values (4-byte key-only tuples), and float32/int32
// workloads need only half the value plane (8-byte key32+val32 tuples). Each
// tuple layout is a layoutOps implementation; the engine holds exactly one
// per run (e.lay) and every phase dispatches element accesses through it
// while all control flow — bin geometry, panel tiling, the work-stealing
// sort scheduler, the budgeted run grouping — stays layout-independent, which
// is what makes the four layouts bit-identical in structure.
//
// The three implementations:
//
//   - wideOps: 16-byte []radix.Pair (u64 key + f64 value).
//   - kv[V]: split key32 + value-plane layouts — kv[float64] is the 12-byte
//     squeezed layout, kv[float32]/kv[int32] the 8-byte narrow one. Keys
//     live in the Workspace (shared by every key32 layout); only the value
//     planes are V-typed.
//   - patternOps: bare []uint32 keys, 4 bytes per tuple; the fold is
//     deduplication and the result CSR carries no Val array.
//
// wideOps and patternOps are zero-size: storing them in the e.lay interface
// allocates nothing (the runtime's zerobase). kv values are reached by
// pointer (&ws.kvF64, or the pooled *kv[V] in ws.kvNarrow), so rebinding
// e.lay per call is allocation-free too.

// Value is the set of element types a value-carrying tuple layout can move:
// the float64 of the 12-byte squeezed layout plus the 4-byte types of the
// 8-byte narrow layout. It matches radix.Numeric, the fused fold's
// constraint.
type Value interface{ ~float32 | ~float64 | ~int32 }

// Value32 is the 4-byte subset of Value — the value plane of the 8-byte
// narrow layout (MultiplyNarrow).
type Value32 interface{ ~float32 | ~int32 }

// ErrKeyWidth reports that a layout requiring 32-bit packed keys was
// requested for a bin geometry whose localRowBits + colBits exceed 32.
var ErrKeyWidth = errors.New("packed key exceeds 32 bits")

// layoutOps is the per-layout half of the pipeline: every method is one
// phase's element accesses over one layout's storage, called with the engine
// whose geometry (bins, shifts, masks) drives it. Implementations must keep
// the tuple ORDER identical across layouts — stable sorts, arrival-order
// folds — so the structural output is bit-identical layout to layout.
type layoutOps interface {
	// growTuples sizes the expanded-tuple buffer for n tuples.
	growTuples(e *engine, n int64)
	// growLocals sizes the flattened threads×nbins×capT local bins.
	growLocals(e *engine, n int64)
	// resetRuns truncates the layout's value run arena (the shared key/pair
	// arenas are reset by the engine).
	resetRuns(e *engine)
	// expandRange is one worker's outer-product expansion with propagation
	// blocking over panel columns [lo+colBounds[t], lo+colBounds[t+1]).
	expandRange(e *engine, t, lo int, cursors []int64)
	// growScratch sizes the layout's per-worker sort-phase scratch: total
	// tuples (threads × engine.scratchStride) of sort planes plus, when the
	// panel has dense bins, accSlots (1<<keyBits) accumulator slots a worker.
	growScratch(e *engine, total, accSlots int64)
	// sortSeg stably sorts tuples [s.start, s.end) on worker s.worker's
	// scratch; s.arg < 0 means a whole bin, otherwise the remaining key bits
	// / byte index of a partitioned bucket.
	sortSeg(e *engine, s sortSeg)
	// partitionTop runs the sort's first splitting pass over [lo, hi) on the
	// given worker's scratch, filling bounds (len ≥
	// radix.MaxPartitionBuckets+1) and returning the bucket count and the
	// arg buckets continue sorting at. nbuckets == 0 means the range needs
	// no further sorting.
	partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (nbuckets, arg int)
	// fuseBin folds the bin [lo, hi) on the given worker's scratch, leaving
	// the sorted, folded prefix in place and returning its length. The key32
	// layouts also tally the bin's rows into rows (rowCounts from the bin's
	// first row on; nil skips it); the wide layout leaves that to the caller.
	fuseBin(e *engine, worker int, lo, hi int64, rows []int64) int64
	// compressBin folds duplicates of the sorted range [lo, hi) in place,
	// returning the folded length.
	compressBin(e *engine, lo, hi int64) int64
	// appendRun copies the folded bin segment at [src, src+n) into the run
	// arena.
	appendRun(e *engine, src, n int64)
	// swapGathered exchanges the tuple planes with the pooled planes a
	// budgeted run gathers its runs into, so the run's tail works on those
	// through the tuple planes' names while the budget-sized tuple buffer
	// waits untouched; a second call puts both back. Nothing may hold the
	// tuple planes (ws.tuples, ws.tupleKeys, the value plane) in a field or
	// local across runBudgeted's tail: it would read the other buffer.
	swapGathered(e *engine)
	// gatherRun copies the run segment [src, src+n) of the run arena to the
	// tuple planes at dst.
	gatherRun(e *engine, src, dst, n int64)
	// unpackBin writes the n folded tuples at srcOff of the tuple planes into
	// the result CSR at dstOff.
	unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64)
	// growOut installs the result's value storage (c.Val for the float64
	// layouts, the layout's out plane for narrow, nothing for pattern).
	growOut(e *engine, c *matrix.CSR, nnzc int64)
}

// growVals is the grow-only sizing helper of the generic planes, the
// counterpart of matrix.GrowFloat64: existing contents survive a reslice and
// a reallocation starts zeroed, so a plane that is all-zero between uses (the
// dense fold's accumulator) stays so.
func growVals[V any](buf *[]V, n int64) []V {
	if int64(cap(*buf)) < n {
		*buf = make([]V, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// kvOf returns the workspace's pooled narrow layout state for value type V,
// creating it on first use. The slot holds one V at a time: alternating
// value types across calls on one workspace reallocates, a stable one reuses.
func kvOf[V Value32](ws *Workspace) *kv[V] {
	if l, ok := ws.kvNarrow.(*kv[V]); ok {
		return l
	}
	l := &kv[V]{}
	ws.kvNarrow = l
	return l
}

// bindLayout installs e.lay for the layout planBins chose. The narrow entry
// pre-binds its typed kv[V] (carrying the caller's value planes); everything
// else resolves here.
func (e *engine) bindLayout() {
	switch e.layout {
	case LayoutSqueezed:
		l := &e.ws.kvF64
		l.aVal, l.bVal = e.a.Val, e.b.Val
		e.lay = l
	case LayoutPattern:
		e.lay = patternOps{}
	case LayoutNarrow:
		// MultiplyNarrow bound e.lay = kvOf[V](ws) before run().
	default:
		e.lay = wideOps{}
	}
}

// MultiplyPattern computes the structural (pattern-only) product of A and B:
// the returned CSR has the exact support of A·B and a nil Val array. Tuples
// are bare 4-byte keys — a quarter of the wide layout's traffic in the
// expand and sort phases — and the fused fold degenerates to deduplication.
// Neither A's nor B's Val arrays are read (they may be nil). The pattern
// layout requires the packed key to fit 32 bits; a geometry with
// localRowBits + colBits > 32 fails with ErrKeyWidth (use Key32Fits to
// pre-check). Options.ForceLayout is ignored: the entry point is the layout.
func MultiplyPattern(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutPattern)
	if err != nil {
		return nil, nil, err
	}
	return e.runContained()
}

// MultiplyNarrow computes C = A*B over 4-byte values (float32 or int32) with
// the 8-byte key32+val32 tuple layout. The inputs are the structural CSC/CSR
// (whose float64 Val arrays are never read and may be nil) plus parallel
// value planes indexed like a.RowIdx and b.ColIdx; the result is the
// structural CSR (nil Val) plus its value plane, aliasing workspace memory
// when opt.Workspace is set. Like MultiplyPattern, the key must fit 32 bits
// (ErrKeyWidth otherwise) and ForceLayout is ignored.
func MultiplyNarrow[V Value32](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, opt Options) (*matrix.CSR, []V, *Stats, error) {
	opt = opt.withDefaults()
	if int64(len(aVal)) < int64(len(a.RowIdx)) || int64(len(bVal)) < int64(len(b.ColIdx)) {
		return nil, nil, nil, fmt.Errorf("core: narrow value planes shorter than their index arrays (%d < %d or %d < %d): %w",
			len(aVal), len(a.RowIdx), len(bVal), len(b.ColIdx), matrix.ErrShape)
	}
	e, err := newEngine(a, b, opt, LayoutNarrow)
	if err != nil {
		return nil, nil, nil, err
	}
	l := kvOf[V](e.ws)
	l.aVal, l.bVal = aVal, bVal
	e.lay = l
	c, st, err := e.runContained()
	vals := l.out
	l.aVal, l.bVal, l.out = nil, nil, nil
	if err != nil {
		return nil, nil, nil, err
	}
	return c, vals, st, nil
}

// ---------------------------------------------------------------------------
// wideOps: the 16-byte []radix.Pair layout.

type wideOps struct{}

func (wideOps) growTuples(e *engine, n int64) { radix.GrowPairs(&e.ws.tuples, n) }
func (wideOps) growLocals(e *engine, n int64) { radix.GrowPairs(&e.ws.locals, n) }
func (wideOps) resetRuns(e *engine)           {}

func (wideOps) expandRange(e *engine, t, lo int, cursors []int64) {
	e.expandRangeWide(t, lo, cursors)
}

func (wideOps) growScratch(e *engine, total, _ int64) {
	radix.GrowPairs(&e.ws.scratchPairs, total)
}

// scratchPairs returns worker w's private slice of the pair scratch plane,
// at least n long.
func (e *engine) scratchPairsFor(w int, n int64) []radix.Pair {
	off := int64(w) * e.scratchStride
	return e.ws.scratchPairs[off : off+n]
}

func (wideOps) sortSeg(e *engine, s sortSeg) {
	ps := e.ws.tuples[s.start:s.end]
	aux := e.scratchPairsFor(s.worker, s.end-s.start)
	if s.arg < 0 {
		radix.SortPairsStable(ps, aux)
	} else {
		radix.SortPairsAtByteStable(ps, aux, s.arg)
	}
}

func (wideOps) partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (int, int) {
	return radix.PartitionPairsScratch(e.ws.tuples[lo:hi], e.scratchPairsFor(worker, hi-lo), bounds)
}

func (wideOps) fuseBin(e *engine, worker int, lo, hi int64, _ []int64) int64 {
	return radix.SortPairsFusedScratch(e.ws.tuples[lo:hi], e.scratchPairsFor(worker, hi-lo))
}

func (wideOps) compressBin(e *engine, lo, hi int64) int64 {
	return compressBinWide(e.ws.tuples[lo:hi])
}

func (wideOps) appendRun(e *engine, src, n int64) {
	e.ws.runs = append(e.ws.runs, e.ws.tuples[src:src+n]...)
}

func (wideOps) swapGathered(e *engine) { e.ws.tuples, e.ws.gathered = e.ws.gathered, e.ws.tuples }

func (wideOps) gatherRun(e *engine, src, dst, n int64) {
	copy(e.ws.tuples[dst:dst+n], e.ws.runs[src:src+n])
}

func (wideOps) unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64) {
	src := e.ws.tuples
	colMask := uint64(1)<<e.colBits - 1
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(src[srcOff+j].Key & colMask)
		c.Val[dstOff+j] = src[srcOff+j].Val
	}
}

func (wideOps) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	if e.shared {
		c.Val = matrix.GrowFloat64(&e.ws.outVal, nnzc)
	} else {
		c.Val = make([]float64, nnzc)
	}
}

// ---------------------------------------------------------------------------
// kv[V]: the split key32 + V value-plane layouts (squeezed f64, narrow f32/i32).

// kv holds one value type's planes of the split layout. Keys are shared
// across all key32 layouts and live in the Workspace; these are only the
// V-typed halves, pooled grow-only exactly like their float64 ancestors.
type kv[V Value] struct {
	tupleVals   []V
	localVals   []V
	runVals     []V
	gatherVals  []V
	outVal      []V
	scratchVals []V
	accVals     []V // dense-fold accumulators, all-zero between bins

	// Per-call bindings: the input value planes (parallel to a.RowIdx /
	// b.ColIdx) and the result's value destination. Cleared after each run so
	// a pooled workspace doesn't pin caller memory.
	aVal, bVal []V
	out        []V
}

// tupleCapBytes reports the value plane's pooled capacity; Workspace
// .TupleCapBytes adds it to the shared key arena's.
func (l *kv[V]) tupleCapBytes() int64 {
	var v V
	return int64(cap(l.tupleVals)) * int64(unsafe.Sizeof(v))
}

func (l *kv[V]) growTuples(e *engine, n int64) {
	radix.GrowUint32(&e.ws.tupleKeys, n)
	growVals(&l.tupleVals, n)
}

func (l *kv[V]) growLocals(e *engine, n int64) {
	radix.GrowUint32(&e.ws.localKeys, n)
	growVals(&l.localVals, n)
}

func (l *kv[V]) resetRuns(e *engine) { l.runVals = l.runVals[:0] }

func (l *kv[V]) growScratch(e *engine, total, accSlots int64) {
	radix.GrowUint32(&e.ws.scratchKeys, total)
	growVals(&e.ws.scratchWords, 2*total)
	growVals(&l.scratchVals, total)
	growVals(&l.accVals, int64(e.opt.Threads)*accSlots)
}

// scratchKeysFor returns worker w's private slice of the shared key scratch
// plane, at least n long.
func (e *engine) scratchKeysFor(w int, n int64) []uint32 {
	off := int64(w) * e.scratchStride
	return e.ws.scratchKeys[off : off+n]
}

// scratchWordsFor returns worker w's two private planes of key|index words.
func (e *engine) scratchWordsFor(w int, n int64) (w0, w1 []uint64) {
	off := 2 * int64(w) * e.scratchStride
	return e.ws.scratchWords[off : off+n], e.ws.scratchWords[off+e.scratchStride : off+e.scratchStride+n]
}

// accBitsFor returns worker w's occupancy bitmap for a key space of slots
// (runSortPhase sized the plane: one bit per slot per worker).
func (e *engine) accBitsFor(w int, slots int64) []uint64 {
	words := (slots + 63) / 64
	return e.ws.accBits[int64(w)*words:][:words]
}

// expandRange mirrors expandRangeWide: same column walk, same propagation
// blocking, writing the 4-byte key and the V value into split local bins and
// flushing each with two bulk copies into the worker's exclusive range.
func (l *kv[V]) expandRange(e *engine, t, lo int, cursors []int64) {
	a, b := e.a, e.b
	nbins := int32(e.nbins)
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	stride := int64(e.nbins) * int64(capT)
	bufK := e.ws.localKeys[int64(t)*stride : int64(t+1)*stride]
	bufV := l.localVals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*e.nbins : (t+1)*e.nbins]
	keys, vals := e.ws.tupleKeys, l.tupleVals
	aVal, bVal := l.aVal, l.bVal
	nt := e.ntFlush

	var sincePoll int64
	for i := lo + e.ws.colBounds[t]; i < lo+e.ws.colBounds[t+1]; i++ {
		bLo, bHi := b.RowPtr[i], b.RowPtr[i+1]
		if bLo == bHi {
			continue
		}
		// Per-column cancellation poll, matching expandRangeWide: check every
		// ~cancelPollTuples expanded tuples, never inside the batched kernels.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (a.ColPtr[i+1] - a.ColPtr[i])
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			r := uint32(a.RowIdx[p])
			av := aVal[p]
			bin := int32(r >> shift)
			localRow := (r & mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
			// Batched expansion: fill the local bin in runs of
			// min(room, remaining) B-row entries per kernel call. The chunk
			// boundaries fall exactly where the per-element loop would have
			// flushed, so the flush sequence — and therefore the global tuple
			// order — is identical to the scalar path's.
			for q := bLo; q < bHi; {
				if ln == capT {
					lens[bin] = ln
					flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
					ln = 0
				}
				take := bHi - q
				if room := int64(capT - ln); take > room {
					take = room
				}
				dk := bufK[base+int64(ln) : base+int64(ln)+take]
				dv := bufV[base+int64(ln) : base+int64(ln)+take]
				simd.ExpandKV(dk, dv, localRow, b.ColIdx[q:q+take], bVal[q:q+take], av)
				ln += int32(take)
				q += take
			}
			lens[bin] = ln
		}
	}
	for bin := int32(0); bin < nbins; bin++ {
		flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
	}
}

// flushLocalKV moves one split local bin's pending tuples, plane by plane,
// into the worker's pre-reserved range of the global bin (flushSpan,
// flushPlane).
func flushLocalKV[V Value](bin int32, bufK []uint32, bufV []V, lens []int32,
	keys []uint32, vals []V, cursors []int64, capT int32, nt bool) {

	src, dst, n := flushSpan(bin, lens, cursors, capT)
	flushPlane(keys[dst:], bufK[src:src+n], nt)
	flushPlane(vals[dst:], bufV[src:src+n], nt)
}

func (l *kv[V]) sortSeg(e *engine, s sortSeg) {
	n := s.end - s.start
	w0, w1 := e.scratchWordsFor(s.worker, n)
	radix.SortFold(e.ws.tupleKeys[s.start:s.end], l.tupleVals[s.start:s.end],
		w0, w1, l.scratchValsFor(e, s.worker, n), e.segKeyBits(s), false, nil, 0)
}

func (l *kv[V]) scratchValsFor(e *engine, w int, n int64) []V {
	off := int64(w) * e.scratchStride
	return l.scratchVals[off : off+n]
}

func (l *kv[V]) partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (int, int) {
	n := hi - lo
	return radix.PartitionTop(e.ws.tupleKeys[lo:hi], l.tupleVals[lo:hi],
		e.scratchKeysFor(worker, n), l.scratchValsFor(e, worker, n), bounds)
}

func (l *kv[V]) fuseBin(e *engine, worker int, lo, hi int64, rows []int64) int64 {
	keys, vals := e.ws.tupleKeys[lo:hi], l.tupleVals[lo:hi]
	n := hi - lo
	if e.denseBin(n) {
		slots := int64(1) << e.keyBits()
		acc := l.accVals[int64(worker)*slots:][:slots]
		return int64(radix.FoldDense(keys, vals, acc, e.accBitsFor(worker, slots), rows, e.colBits))
	}
	w0, w1 := e.scratchWordsFor(worker, n)
	return int64(radix.SortFold(keys, vals, w0, w1, l.scratchValsFor(e, worker, n),
		int(e.keyBits()), true, rows, e.colBits))
}

// compressBin is the paper's two-pointer in-place merge over the split
// layout: p1 walks the sorted tuples, p2 tracks the write position; equal
// keys fold their values into the tuple at p2.
func (l *kv[V]) compressBin(e *engine, lo, hi int64) int64 {
	keys := e.ws.tupleKeys[lo:hi]
	vals := l.tupleVals[lo:hi]
	if len(keys) == 0 {
		return 0
	}
	p2 := 0
	for p1 := 1; p1 < len(keys); p1++ {
		if keys[p1] == keys[p2] {
			vals[p2] += vals[p1]
			continue
		}
		p2++
		keys[p2] = keys[p1]
		vals[p2] = vals[p1]
	}
	return int64(p2 + 1)
}

func (l *kv[V]) appendRun(e *engine, src, n int64) {
	e.ws.runKeys = append(e.ws.runKeys, e.ws.tupleKeys[src:src+n]...)
	l.runVals = append(l.runVals, l.tupleVals[src:src+n]...)
}

func (l *kv[V]) swapGathered(e *engine) {
	e.ws.tupleKeys, e.ws.gatherKeys = e.ws.gatherKeys, e.ws.tupleKeys
	l.tupleVals, l.gatherVals = l.gatherVals, l.tupleVals
}

func (l *kv[V]) gatherRun(e *engine, src, dst, n int64) {
	copy(e.ws.tupleKeys[dst:dst+n], e.ws.runKeys[src:src+n])
	copy(l.tupleVals[dst:dst+n], l.runVals[src:src+n])
}

func (l *kv[V]) unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64) {
	keys, vals := e.ws.tupleKeys, l.tupleVals
	cm := uint32(uint64(1)<<e.colBits - 1)
	out := l.out
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(keys[srcOff+j] & cm)
		out[dstOff+j] = vals[srcOff+j]
	}
}

func (l *kv[V]) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	if e.shared {
		l.out = growVals(&l.outVal, nnzc)
	} else {
		l.out = make([]V, nnzc)
	}
}

// ---------------------------------------------------------------------------
// patternOps: the 4-byte key-only layout.

type patternOps struct{}

func (patternOps) growTuples(e *engine, n int64) { radix.GrowUint32(&e.ws.tupleKeys, n) }
func (patternOps) growLocals(e *engine, n int64) { radix.GrowUint32(&e.ws.localKeys, n) }
func (patternOps) resetRuns(e *engine)           {}

// expandRange is the key-only expansion: same walk, no value multiply — the
// tuple IS its packed key, and a flush moves one plane.
func (patternOps) expandRange(e *engine, t, lo int, cursors []int64) {
	a, b := e.a, e.b
	nbins := int32(e.nbins)
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	stride := int64(e.nbins) * int64(capT)
	bufK := e.ws.localKeys[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*e.nbins : (t+1)*e.nbins]
	keys := e.ws.tupleKeys
	nt := e.ntFlush

	var sincePoll int64
	for i := lo + e.ws.colBounds[t]; i < lo+e.ws.colBounds[t+1]; i++ {
		bLo, bHi := b.RowPtr[i], b.RowPtr[i+1]
		if bLo == bHi {
			continue
		}
		// Per-column cancellation poll, matching expandRangeWide.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (a.ColPtr[i+1] - a.ColPtr[i])
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			r := uint32(a.RowIdx[p])
			bin := int32(r >> shift)
			localRow := (r & mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
			// Chunked like kv.expandRange: flush boundaries match the
			// per-element loop exactly.
			for q := bLo; q < bHi; {
				if ln == capT {
					lens[bin] = ln
					flushLocalPattern(bin, bufK, lens, keys, cursors, capT, nt)
					ln = 0
				}
				take := bHi - q
				if room := int64(capT - ln); take > room {
					take = room
				}
				// ln and q advance before the kernel, not after: ExpandK inlines
				// here, and with both updates behind it the register allocator
				// parked a reload inside its loop (+20 % expand on R-MAT's long
				// rows). Same chunks either way.
				dk := bufK[base+int64(ln) : base+int64(ln)+take]
				cols := b.ColIdx[q : q+take]
				ln += int32(take)
				q += take
				simd.ExpandK(dk, localRow, cols)
			}
			lens[bin] = ln
		}
	}
	for bin := int32(0); bin < nbins; bin++ {
		flushLocalPattern(bin, bufK, lens, keys, cursors, capT, nt)
	}
}

func flushLocalPattern(bin int32, bufK []uint32, lens []int32,
	keys []uint32, cursors []int64, capT int32, nt bool) {

	src, dst, n := flushSpan(bin, lens, cursors, capT)
	flushPlane(keys[dst:], bufK[src:src+n], nt)
}

func (patternOps) growScratch(e *engine, total, _ int64) {
	radix.GrowUint32(&e.ws.scratchKeys, total)
}

func (patternOps) sortSeg(e *engine, s sortSeg) {
	radix.SortFoldPattern(e.ws.tupleKeys[s.start:s.end],
		e.scratchKeysFor(s.worker, s.end-s.start), e.segKeyBits(s), false, nil, 0)
}

func (patternOps) partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (int, int) {
	none := make([]struct{}, hi-lo) // the value plane of a key-only tuple: zero bytes
	return radix.PartitionTop(e.ws.tupleKeys[lo:hi], none, e.scratchKeysFor(worker, hi-lo), none, bounds)
}

// fuseBin: the fold is deduplication, so dense bins need only the bitmap.
func (patternOps) fuseBin(e *engine, worker int, lo, hi int64, rows []int64) int64 {
	keys := e.ws.tupleKeys[lo:hi]
	if e.denseBin(hi - lo) {
		return int64(radix.FoldDensePattern(keys, e.accBitsFor(worker, int64(1)<<e.keyBits()), rows, e.colBits))
	}
	return int64(radix.SortFoldPattern(keys, e.scratchKeysFor(worker, hi-lo),
		int(e.keyBits()), true, rows, e.colBits))
}

// compressBin's fold over the pattern layout is deduplication: equal keys
// keep one tuple, no value to sum.
func (patternOps) compressBin(e *engine, lo, hi int64) int64 {
	keys := e.ws.tupleKeys[lo:hi]
	if len(keys) == 0 {
		return 0
	}
	p2 := 0
	for p1 := 1; p1 < len(keys); p1++ {
		if keys[p1] == keys[p2] {
			continue
		}
		p2++
		keys[p2] = keys[p1]
	}
	return int64(p2 + 1)
}

func (patternOps) appendRun(e *engine, src, n int64) {
	e.ws.runKeys = append(e.ws.runKeys, e.ws.tupleKeys[src:src+n]...)
}

func (patternOps) swapGathered(e *engine) {
	e.ws.tupleKeys, e.ws.gatherKeys = e.ws.gatherKeys, e.ws.tupleKeys
}

func (patternOps) gatherRun(e *engine, src, dst, n int64) {
	copy(e.ws.tupleKeys[dst:dst+n], e.ws.runKeys[src:src+n])
}

func (patternOps) unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64) {
	keys := e.ws.tupleKeys
	cm := uint32(uint64(1)<<e.colBits - 1)
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(keys[srcOff+j] & cm)
	}
}

func (patternOps) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	// Pattern results are structural: c.Val stays nil by design.
}
