package core

import (
	"fmt"
	"reflect"
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
// while all control flow — bin geometry, bin groups, the fuse phase's
// schedule — stays layout-independent, which is what makes the four layouts
// bit-identical in structure.
//
// The three implementations:
//
//   - pairs[V]: 16-byte []radix.Pair[V] (u64 key + value), for any value type
//     and (⊕, ⊗): MultiplyWide runs a semiring's.
//   - kv[V]: split key32 + value-plane layouts — kv[float64] is the 12-byte
//     squeezed layout, kv[float32]/kv[int32] the 8-byte narrow one. Keys
//     live in the Workspace (shared by every key32 layout); only the value
//     planes are V-typed.
//   - patternOps: bare []uint32 keys, 4 bytes per tuple; the fold is
//     deduplication and the result CSR carries no Val array.
//
// patternOps is zero-size: storing it in the e.lay interface allocates
// nothing (the runtime's zerobase). kv and pairs values are reached by pointer
// (&ws.kvF64, or the pooled *kv[V] / *pairs[V] in ws.kvNarrow / ws.wide), so
// rebinding e.lay per call is allocation-free too.

// Value is the set of element types a value-carrying tuple layout can move:
// the float64 of the 12-byte squeezed layout plus the 4-byte types of the
// 8-byte narrow layout. It matches radix.Numeric, the fused fold's
// constraint.
type Value interface{ ~float32 | ~float64 | ~int32 }

// Value32 is the 4-byte subset of Value — the value plane of the 8-byte
// narrow layout (MultiplyNarrow).
type Value32 interface{ ~float32 | ~int32 }

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
	// expandRange is one worker's outer-product expansion with propagation
	// blocking over the running group's columns [colBounds[t], colBounds[t+1])
	// (engine.colLo).
	expandRange(e *engine, t int, cursors []int64)
	// growScratch sizes the layout's per-worker sort-phase scratch: total
	// tuples (threads × engine.scratchStride) of sort planes plus, when the
	// group has dense bins, accSlots (1<<keyBits) accumulator slots a worker.
	growScratch(e *engine, total, accSlots int64)
	// fuseBin sorts and folds bin (its tuples lie at ws.binStart[bin:bin+2])
	// on the given worker's scratch, leaving the sorted, folded prefix in
	// place and returning its length, and tallies the folded rows into
	// e.tally. Rows of a bin are touched by no other bin, so the shared slice
	// needs no synchronization.
	fuseBin(e *engine, worker, bin int) int64
	// unpackBin writes the n folded tuples at srcOff of the tuple planes into
	// the result CSR at dstOff.
	unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64)
	// growOut sizes the result's value storage to nnzc (resultPlane): the
	// layout's out plane (growResult makes it c.Val for Multiply's float64
	// layouts), nothing for pattern.
	growOut(e *engine, c *matrix.CSR, nnzc int64)
}

// growVals is the grow-only sizing helper of the generic planes, the
// counterpart of matrix.Grow: existing contents survive a reslice and
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

// binRows is the slice of e.tally a bin's fold tallies into, indexed by
// local row.
func (e *engine) binRows(bin int) []int64 { return e.tally[int64(bin)<<e.rowShift+1:] }

// MultiplyPattern computes the structural (pattern-only) product of A and B:
// the returned CSR has the exact support of A·B and a nil Val array. Tuples
// are bare 4-byte keys — a quarter of the wide layout's traffic in the
// expand and sort phases — and the fused fold degenerates to deduplication.
// Neither A's nor B's Val arrays are read (they may be nil).
//
// Where MultiplyLayout says wide, the same support comes from MultiplyWide
// over zero-size values.
func MultiplyPattern(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	if MultiplyLayout(a.NumRows, b.NumCols) == LayoutWide {
		c, _, st, err := MultiplyWide(a, make([]struct{}, len(a.RowIdx)), b, make([]struct{}, len(b.ColIdx)), structural, opt)
		return c, st, err
	}
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutPattern)
	if err != nil {
		return nil, nil, err
	}
	e.lay = patternOps{}
	return e.runContained()
}

// checkPlanes rejects out-of-band value planes (MultiplyNarrow, MultiplyWide)
// shorter than the index arrays they run parallel to.
func checkPlanes(a *matrix.CSC, na int, b *matrix.CSR, nb int) error {
	if na < len(a.RowIdx) || nb < len(b.ColIdx) {
		return fmt.Errorf("core: value planes shorter than their index arrays (%d < %d or %d < %d): %w",
			na, len(a.RowIdx), nb, len(b.ColIdx), matrix.ErrShape)
	}
	return nil
}

// MultiplyNarrow computes C = A*B over 4-byte values (float32 or int32) with
// the 8-byte key32+val32 tuple layout. The inputs are the structural CSC/CSR
// (whose float64 Val arrays are never read and may be nil) plus parallel
// value planes indexed like a.RowIdx and b.ColIdx; the result is the
// structural CSR (nil Val) plus its value plane, aliasing workspace memory
// when opt.Workspace is set. Where MultiplyLayout says wide it runs
// MultiplyWide over the same (+, ×).
func MultiplyNarrow[V Value32](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, opt Options) (*matrix.CSR, []V, *Stats, error) {
	if MultiplyLayout(a.NumRows, b.NumCols) == LayoutWide {
		return MultiplyWide(a, aVal, b, bVal, Algebra[V]{Times: timesChunk[V], Plus: add[V]}, opt)
	}
	opt = opt.withDefaults()
	if err := checkPlanes(a, len(aVal), b, len(bVal)); err != nil {
		return nil, nil, nil, err
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
// pairs[V]: the wide layout, []radix.Pair[V] (u64 key + V value).

// Algebra is what a wide run multiplies over. Times forms the values of one
// chunk of expanded tuples, dst[j].Val = a ⊗ b[j] (len(b) ≥ len(dst); the keys
// are already in place): one indirect call per chunk — per tuple it costs
// expand as much again as the walk itself. Plus folds the values of
// equal keys, left to right in arrival order (a stable sort keeps that order,
// so the fold is defined even where Plus does not commute or associate
// exactly). Both run on worker goroutines; a panic in either is contained like
// any worker panic.
type Algebra[V any] struct {
	Times func(dst []radix.Pair[V], a V, b []V)
	Plus  func(a, b V) V
}

// Elementwise lifts a scalar ⊗ to Algebra.Times' chunk form.
func Elementwise[V any](times func(a, b V) V) func(dst []radix.Pair[V], a V, b []V) {
	return func(dst []radix.Pair[V], a V, b []V) {
		for j := range dst {
			dst[j].Val = times(a, b[j])
		}
	}
}

// PlusTimes is (+, ×) over float64 as an Algebra: the float64 product on the
// wide layout.
var PlusTimes = Algebra[float64]{Times: timesChunk[float64], Plus: add[float64]}

func timesChunk[V Value](dst []radix.Pair[V], a V, b []V) {
	for j := range dst {
		dst[j].Val = a * b[j]
	}
}

func add[V Value](a, b V) V { return a + b }

// structural is the Algebra of a pattern product on the wide layout: the
// values are zero-size, so folding equal keys is deduplication.
var structural = Algebra[struct{}]{
	Times: func([]radix.Pair[struct{}], struct{}, []struct{}) {},
	Plus:  func(struct{}, struct{}) struct{} { return struct{}{} },
}

// pairs holds one value type's planes of the wide layout, pooled grow-only in
// Workspace.wide (one V at a time, like kvNarrow), plus the per-call bindings:
// the input value planes, the algebra and the result's value destination.
type pairs[V any] struct {
	tuples, locals, scratch []radix.Pair[V]
	outVal, acc             []V // acc: dense-fold accumulators, all-zero between bins

	aVal, bVal []V
	alg        Algebra[V]
	out        []V
	// flat: V holds no pointers, so the non-temporal flush — a raw byte copy,
	// no GC write barriers, bytewise at its unaligned ends — may move its tuples.
	flat bool
}

// pairsOf returns the workspace's pooled wide layout state for value type V,
// creating it on first use.
func pairsOf[V any](ws *Workspace) *pairs[V] {
	if l, ok := ws.wide.(*pairs[V]); ok {
		return l
	}
	l := &pairs[V]{flat: pointerFree(reflect.TypeFor[V]())}
	ws.wide = l
	return l
}

// pointerFree reports whether no value of type t holds a pointer the garbage
// collector traces.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return reflect.Bool <= t.Kind() && t.Kind() <= reflect.Complex128
}

// widePool is what the Workspace asks of its pooled *pairs[V], whatever V is.
type widePool interface {
	// unbind drops the per-call references a pooled workspace must not pin.
	// The result plane stays: the entry point reads it after the run.
	unbind()
	tupleCapBytes() int64
}

// detachOut forgets the pooled result plane (Workspace.DetachOutput).
func (l *pairs[V]) detachOut() { l.outVal = nil }
func (l *kv[V]) detachOut()    { l.outVal = nil }
func (l *pairs[V]) unbind()    { l.aVal, l.bVal, l.alg = nil, nil, Algebra[V]{} }
func (l *pairs[V]) tupleCapBytes() int64 {
	return int64(cap(l.tuples)) * int64(unsafe.Sizeof(radix.Pair[V]{}))
}

// MultiplyWide computes C = A ⊗ B over alg with the wide tuple layout, for
// any value type: the pipeline of Multiply — parallel propagation-blocked
// expand, fused sort and fold, budgeted bin groups, sub-phase cancellation,
// worker-panic containment — with alg.Times where Multiply multiplies and
// alg.Plus where it adds. Its bins are the flop rule's: a 64-bit key needs no
// more of them. Like MultiplyNarrow the inputs are the structural CSC/CSR
// (Val never read, may be nil) plus value planes parallel to a.RowIdx and
// b.ColIdx, and the result is the structural CSR plus its value plane,
// aliasing workspace memory when opt.Workspace is set.
func MultiplyWide[V any](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, alg Algebra[V], opt Options) (*matrix.CSR, []V, *Stats, error) {
	opt = opt.withDefaults()
	if err := checkPlanes(a, len(aVal), b, len(bVal)); err != nil {
		return nil, nil, nil, err
	}
	e, err := newEngine(a, b, opt, LayoutWide)
	if err != nil {
		return nil, nil, nil, err
	}
	l := pairsOf[V](e.ws)
	l.aVal, l.bVal, l.alg = aVal, bVal, alg
	e.lay = l
	e.wideBytes = max(WideTupleBytes, int64(unsafe.Sizeof(radix.Pair[V]{})))
	c, st, err := e.runContained()
	vals := l.out
	l.out = nil
	if err != nil {
		return nil, nil, nil, err
	}
	return c, vals, st, nil
}

func (l *pairs[V]) growTuples(e *engine, n int64) { radix.GrowPairs(&l.tuples, n) }
func (l *pairs[V]) growLocals(e *engine, n int64) { radix.GrowPairs(&l.locals, n) }

// expandRange is the wide layout's walk: the same columns, chunks and flush
// schedule as kv.expandRange below, forming each 64-bit key and its value
// (through alg.Times) in place in the local bin.
func (l *pairs[V]) expandRange(e *engine, t int, cursors []int64) {
	a, b := e.a, e.b
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	// Offsets in int64: threads × nbins × capT can exceed int32 range.
	stride := int64(e.nbins) * int64(capT)
	buf := l.locals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*e.nbins : (t+1)*e.nbins]
	tuples := l.tuples
	aVal, bVal, times := l.aVal, l.bVal, l.alg.Times
	nt := e.ntFlush && l.flat

	var sincePoll int64
	for j := e.ws.colBounds[t]; j < e.ws.colBounds[t+1]; j++ {
		bLo, bHi, pLo, pHi := e.rowLo[j], e.rowHi[j], e.colLo[j], e.colHi[j]
		if bLo == bHi {
			continue
		}
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (pHi - pLo)
		for p := pLo; p < pHi; p++ {
			r := uint32(a.RowIdx[p])
			av := aVal[p]
			bin := int32(r >> shift)
			localRow := uint64(r&mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
			for q := bLo; q < bHi; {
				if ln == capT {
					lens[bin] = ln
					flushLocalPairs(bin, buf, lens, tuples, cursors, capT, nt)
					ln = 0
				}
				take := bHi - q
				if room := int64(capT - ln); take > room {
					take = room
				}
				dst := buf[base+int64(ln) : base+int64(ln)+take]
				cols := b.ColIdx[q : q+take]
				for j := range dst {
					dst[j].Key = localRow | uint64(uint32(cols[j]))
				}
				times(dst, av, bVal[q:q+take])
				ln += int32(take)
				q += take
			}
			lens[bin] = ln
		}
	}
	// Drain partially-filled local bins (Algorithm 2 lines 15–18).
	for bin := int32(e.binLo); bin < int32(e.binHi); bin++ {
		flushLocalPairs(bin, buf, lens, tuples, cursors, capT, nt)
	}
}

func flushLocalPairs[V any](bin int32, buf []radix.Pair[V], lens []int32,
	tuples []radix.Pair[V], cursors []int64, capT int32, nt bool) {

	src, dst, n := flushSpan(bin, lens, cursors, capT)
	flushPlane(tuples[dst:], buf[src:src+n], nt)
}

func (l *pairs[V]) growScratch(e *engine, total, accSlots int64) {
	radix.GrowPairs(&l.scratch, total)
	growVals(&l.acc, int64(e.opt.Threads)*accSlots)
}

func (l *pairs[V]) fuseBin(e *engine, worker, bin int) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	var n int
	if e.denseBin(hi - lo) {
		slots := int64(1) << e.keyBits()
		acc := l.acc[int64(worker)*slots:][:slots]
		n = radix.FoldDensePairs(l.tuples[lo:hi], acc, e.accBitsFor(worker, slots), l.alg.Plus)
	} else {
		n = radix.SortPairs(l.tuples[lo:hi], l.scratch[int64(worker)*e.scratchStride:][:hi-lo], int(e.keyBits()), l.alg.Plus)
	}
	// The row tally over the folded tuples, whichever kernel ran.
	seg, rows, cb := l.tuples[lo:][:n], e.binRows(bin), e.colBits
	for i := range seg {
		rows[seg[i].Key>>cb]++
	}
	return int64(n)
}

func (l *pairs[V]) unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64) {
	src, out := l.tuples[srcOff:srcOff+n], l.out[dstOff:dstOff+n]
	cols := c.ColIdx[dstOff : dstOff+n]
	colMask := uint64(1)<<e.colBits - 1
	for j := range src {
		cols[j] = int32(src[j].Key & colMask)
		out[j] = src[j].Val
	}
}

func (l *pairs[V]) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	l.out = resultPlane(e, l.out, &l.outVal, nnzc)
}

// ---------------------------------------------------------------------------
// kv[V]: the split key32 + V value-plane layouts (squeezed f64, narrow f32/i32).

// kv holds one value type's planes of the split layout. Keys are shared
// across all key32 layouts and live in the Workspace; these are only the
// V-typed halves, pooled grow-only exactly like their float64 ancestors.
type kv[V Value] struct {
	tupleVals   []V
	localVals   []V
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

func (l *kv[V]) growScratch(e *engine, total, accSlots int64) {
	growVals(&e.ws.scratchWords, 2*total)
	growVals(&l.scratchVals, total)
	growVals(&l.accVals, int64(e.opt.Threads)*accSlots)
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

// expandRange is one worker's share of expand: the group's columns
// [colBounds[t], colBounds[t+1]), propagation-blocked — the 4-byte key
// and the V value go into split local bins, each flushed with two bulk copies
// into the worker's exclusive range. cursors is the worker's private per-bin
// write-position array, pre-seeded with its exclusive offsets.
func (l *kv[V]) expandRange(e *engine, t int, cursors []int64) {
	a, b := e.a, e.b
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
	for j := e.ws.colBounds[t]; j < e.ws.colBounds[t+1]; j++ {
		bLo, bHi, pLo, pHi := e.rowLo[j], e.rowHi[j], e.colLo[j], e.colHi[j]
		if bLo == bHi {
			continue
		}
		// Sub-phase cancellation: poll every ~cancelPollTuples expanded
		// tuples. The counter costs two scalar ops per column — off the
		// batched inner loops, invisible to the bench gate.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (pHi - pLo)
		for p := pLo; p < pHi; p++ {
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
	for bin := int32(e.binLo); bin < int32(e.binHi); bin++ {
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

func (l *kv[V]) fuseBin(e *engine, worker, bin int) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	keys, vals, rows := e.ws.tupleKeys[lo:hi], l.tupleVals[lo:hi], e.binRows(bin)
	n := hi - lo
	if e.denseBin(n) {
		slots := int64(1) << e.keyBits()
		acc := l.accVals[int64(worker)*slots:][:slots]
		return int64(radix.FoldDense(keys, vals, acc, e.accBitsFor(worker, slots), rows, e.colBits))
	}
	w0, w1 := e.scratchWordsFor(worker, n)
	return int64(radix.SortFold(keys, vals, w0, w1, l.scratchVals[int64(worker)*e.scratchStride:][:n],
		int(e.keyBits()), rows, e.colBits))
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
	l.out = resultPlane(e, l.out, &l.outVal, nnzc)
}

// ---------------------------------------------------------------------------
// patternOps: the 4-byte key-only layout.

type patternOps struct{}

func (patternOps) growTuples(e *engine, n int64) { radix.GrowUint32(&e.ws.tupleKeys, n) }
func (patternOps) growLocals(e *engine, n int64) { radix.GrowUint32(&e.ws.localKeys, n) }

// expandRange is the key-only expansion: same walk, no value multiply — the
// tuple IS its packed key, and a flush moves one plane.
func (patternOps) expandRange(e *engine, t int, cursors []int64) {
	a, b := e.a, e.b
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	stride := int64(e.nbins) * int64(capT)
	// The flush's operands stay in memory, behind lb: held in registers
	// across the column loop they crowded ExpandK's inlined loop, whose
	// operands the register allocator then reloaded from the stack every
	// tuple (+10–25 % expand on R-MAT 2^13·d16). That loop is five
	// instructions; where it straddles a 32-byte boundary it ran ~15 % slower
	// on a one-thread R-MAT 2^13·d16 expand, so check its placement
	// (`go tool objdump -s 'core.patternOps.expandRange'`) after editing
	// this function: the order of the statements below puts it in one.
	lb := &patternBins{
		buf:     e.ws.localKeys[int64(t)*stride : int64(t+1)*stride],
		lens:    e.ws.localLens[t*e.nbins : (t+1)*e.nbins],
		keys:    e.ws.tupleKeys,
		cursors: cursors, capT: capT, nt: e.ntFlush,
	}

	var sincePoll int64
	for j := e.ws.colBounds[t]; j < e.ws.colBounds[t+1]; j++ {
		bLo, bHi, pLo, pHi := e.rowLo[j], e.rowHi[j], e.colLo[j], e.colHi[j]
		if bLo == bHi {
			continue
		}
		// Per-column cancellation poll, as in kv.expandRange.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (pHi - pLo)
		for p := pLo; p < pHi; p++ {
			r := uint32(a.RowIdx[p])
			localRow := (r & mask) << colBits
			bin := int32(r >> shift)
			base := int64(bin) * int64(capT)
			ln := lb.lens[bin]
			// Chunked like kv.expandRange: flush boundaries match the
			// per-element loop exactly.
			for q := bLo; q < bHi; {
				if ln == capT {
					lb.lens[bin] = ln
					lb.flush(bin)
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
				dk := lb.buf[base+int64(ln) : base+int64(ln)+take]
				cols := b.ColIdx[q : q+take]
				ln += int32(take)
				q += take
				simd.ExpandK(dk, localRow, cols)
			}
			lb.lens[bin] = ln
		}
	}
	for bin := int32(e.binLo); bin < int32(e.binHi); bin++ {
		lb.flush(bin)
	}
}

// patternBins is one worker's local bins of the pattern layout: its keys,
// fill counts and cursors into the tuple keys, and how to flush them.
type patternBins struct {
	buf     []uint32
	lens    []int32
	keys    []uint32
	cursors []int64
	capT    int32
	nt      bool
}

// flush moves the bin's pending keys into the worker's reserved range of the
// global bin (flushSpan, flushPlane).
func (lb *patternBins) flush(bin int32) {
	src, dst, n := flushSpan(bin, lb.lens, lb.cursors, lb.capT)
	flushPlane(lb.keys[dst:], lb.buf[src:src+n], lb.nt)
}

func (patternOps) growScratch(e *engine, total, _ int64) {
	radix.GrowUint32(&e.ws.scratchKeys, total)
}

// fuseBin: the fold is deduplication, so dense bins need only the bitmap.
func (patternOps) fuseBin(e *engine, worker, bin int) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	keys, rows := e.ws.tupleKeys[lo:hi], e.binRows(bin)
	if e.denseBin(hi - lo) {
		return int64(radix.FoldDensePattern(keys, e.accBitsFor(worker, int64(1)<<e.keyBits()), rows, e.colBits))
	}
	return int64(radix.SortFoldPattern(keys, e.ws.scratchKeys[int64(worker)*e.scratchStride:][:hi-lo],
		int(e.keyBits()), rows, e.colBits))
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
