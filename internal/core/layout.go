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
// bit-identical in structure. Every one packs its keys into 32 bits, in a
// key plane the Workspace shares between them.
//
// The three implementations:
//
//   - kv[V]: the typed split layouts — kv[float64] is the 12-byte squeezed
//     layout, kv[float32]/kv[int32] the 8-byte narrow one — which multiply
//     with internal/simd's batched kernel and fold with +.
//   - generic[V]: the key plane beside a plane of any V, 4 + sizeof(V) bytes
//     a tuple, multiplied and folded through the caller's ⊗ and ⊕:
//     MultiplyGeneric runs a semiring's that has no typed entry. It and kv
//     share their value planes' code (planes[V]); each keeps its own expand
//     walk and fold, as a typed loop behind a call per chunk or per tuple
//     costs the typed layouts 3–4 % of expand or more.
//   - patternOps: bare []uint32 keys, 4 bytes per tuple; the fold is
//     deduplication and the result CSR carries no Val array.
//
// patternOps is zero-size: storing it in the e.lay interface allocates
// nothing (the runtime's zerobase). kv and generic values are reached by
// pointer (&ws.kvF64, or the pooled *kv[V] / *generic[V] in ws.kvNarrow /
// ws.generic), so rebinding e.lay per call is allocation-free too.

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
// are bare 4-byte keys — a third of the squeezed layout's traffic in the
// expand and sort phases — and the fused fold degenerates to deduplication.
// Neither A's nor B's Val arrays are read (they may be nil).
func MultiplyPattern(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutPattern)
	if err != nil {
		return nil, nil, err
	}
	e.lay = patternOps{}
	return e.runContained()
}

// checkPlanes rejects out-of-band value planes (MultiplyNarrow, MultiplyGeneric)
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
// when opt.Workspace is set.
func MultiplyNarrow[V Value32](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, opt Options) (*matrix.CSR, []V, *Stats, error) {
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
// planes[V]: the value-plane half of the kv and generic layouts.

// planes holds one value type's planes of a layout with values. Keys are
// shared across all key32 layouts and live in the Workspace; these are only
// the V-typed halves, pooled grow-only.
type planes[V any] struct {
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
func (l *planes[V]) tupleCapBytes() int64 {
	var v V
	return int64(cap(l.tupleVals)) * int64(unsafe.Sizeof(v))
}

// detachOut forgets the pooled result plane (Workspace.DetachOutput).
func (l *planes[V]) detachOut() { l.outVal = nil }

func (l *planes[V]) growTuples(e *engine, n int64) {
	radix.GrowUint32(&e.ws.tupleKeys, n)
	growVals(&l.tupleVals, n)
}

func (l *planes[V]) growLocals(e *engine, n int64) {
	radix.GrowUint32(&e.ws.localKeys, n)
	growVals(&l.localVals, n)
}

func (l *planes[V]) growScratch(e *engine, total, accSlots int64) {
	growVals(&e.ws.scratchWords, 2*total)
	growVals(&l.scratchVals, total)
	growVals(&l.accVals, int64(e.opt.Threads)*accSlots)
}

func (l *planes[V]) unpackBin(e *engine, c *matrix.CSR, srcOff, dstOff, n int64) {
	keys, vals := e.ws.tupleKeys, l.tupleVals
	cm := uint32(uint64(1)<<e.colBits - 1)
	out := l.out
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(keys[srcOff+j] & cm)
		out[dstOff+j] = vals[srcOff+j]
	}
}

func (l *planes[V]) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	l.out = resultPlane(e, l.out, &l.outVal, nnzc)
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

// flushLocalKV moves one split local bin's pending tuples, plane by plane,
// into the worker's pre-reserved range of the global bin (flushSpan,
// flushPlane).
func flushLocalKV[V any](bin int32, bufK []uint32, bufV []V, lens []int32,
	keys []uint32, vals []V, cursors []int64, capT int32, nt bool) {

	src, dst, n := flushSpan(bin, lens, cursors, capT)
	flushPlane(keys[dst:], bufK[src:src+n], nt)
	flushPlane(vals[dst:], bufV[src:src+n], nt)
}

// ---------------------------------------------------------------------------
// kv[V]: the typed layouts (squeezed f64, narrow f32/i32).

// kv is the typed layouts' planes: expand multiplies with the batched
// kernel and the fold adds.
type kv[V Value] struct{ planes[V] }

// expandRange is one worker's share of expand: the group's columns
// [colBounds[t], colBounds[t+1]), propagation-blocked — the 4-byte key
// and the V value go into split local bins, each flushed with two bulk copies
// into the worker's exclusive range. cursors is the worker's private per-bin
// write-position array, pre-seeded with its exclusive offsets; it, the local
// bins and their fill counts are indexed by the group's bins, bin − binLo.
func (l *kv[V]) expandRange(e *engine, t int, cursors []int64) {
	a, b := e.a, e.b
	capT := e.localCap
	shift, mask, colBits, binLo := e.rowShift, e.rowMask, e.colBits, uint32(e.binLo)
	gb := e.binHi - e.binLo
	stride := int64(gb) * int64(capT)
	bufK := e.ws.localKeys[int64(t)*stride : int64(t+1)*stride]
	bufV := l.localVals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*gb : (t+1)*gb]
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
			bin := int32(r>>shift - binLo)
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
	for bin := int32(0); bin < int32(gb); bin++ {
		flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
	}
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

// ---------------------------------------------------------------------------
// generic[V]: the key plane beside a plane of any V, through ⊗ and ⊕.

// Algebra is what a generic run multiplies over. Times forms the values of
// one chunk of expanded tuples, dst[j] = a ⊗ b[j] (len(b) ≥ len(dst); the
// keys are already in place): one indirect call per chunk — per tuple it
// costs expand as much again as the walk itself. Plus folds the values of
// equal keys, left to right in arrival order (a stable sort keeps that
// order, so the fold is defined even where Plus does not commute or
// associate exactly). Both run on worker goroutines; a panic in either is
// contained like any worker panic.
type Algebra[V any] struct {
	Times func(dst []V, a V, b []V)
	Plus  func(a, b V) V
}

// generic is the generic layout's planes plus the run's algebra.
type generic[V any] struct {
	planes[V]
	alg Algebra[V]
	// flat: V holds no pointers, so the non-temporal flush — a raw byte copy,
	// no GC write barriers, bytewise at its unaligned ends — may move its values.
	flat bool
}

// genericPool is what the Workspace asks of its pooled *generic[V], whatever
// V is.
type genericPool interface {
	// unbind drops the per-call references a pooled workspace must not pin.
	// The result plane stays: the entry point reads it after the run.
	unbind()
	tupleCapBytes() int64
}

func (l *generic[V]) unbind() { l.aVal, l.bVal, l.alg = nil, nil, Algebra[V]{} }

// genericOf returns the workspace's pooled generic layout state for value
// type V, creating it on first use. The slot holds one V at a time, like
// kvNarrow.
func genericOf[V any](ws *Workspace) *generic[V] {
	if l, ok := ws.generic.(*generic[V]); ok {
		return l
	}
	l := &generic[V]{flat: pointerFree(reflect.TypeFor[V]())}
	ws.generic = l
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

// MultiplyGeneric computes C = A ⊗ B over alg for any value type, with the
// generic layout: the pipeline of Multiply — 32-bit keys in bins cut by the
// same rules, parallel propagation-blocked expand, fused sort and fold, bin
// groups, sub-phase cancellation, worker-panic containment — with alg.Times where
// Multiply multiplies and alg.Plus where it adds. Its tuples are 4 +
// sizeof(V) bytes. Like MultiplyNarrow the inputs are the structural CSC/CSR
// (Val never read, may be nil) plus value planes parallel to a.RowIdx and
// b.ColIdx, and the result is the structural CSR plus its value plane,
// aliasing workspace memory when opt.Workspace is set.
func MultiplyGeneric[V any](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, alg Algebra[V], opt Options) (*matrix.CSR, []V, *Stats, error) {
	opt = opt.withDefaults()
	if err := checkPlanes(a, len(aVal), b, len(bVal)); err != nil {
		return nil, nil, nil, err
	}
	e, err := newEngine(a, b, opt, LayoutGeneric)
	if err != nil {
		return nil, nil, nil, err
	}
	l := genericOf[V](e.ws)
	l.aVal, l.bVal, l.alg = aVal, bVal, alg
	e.lay = l
	e.tupleBytes = 4 + int64(unsafe.Sizeof(*new(V)))
	c, st, err := e.runContained()
	vals := l.out
	l.out = nil
	if err != nil {
		return nil, nil, nil, err
	}
	return c, vals, st, nil
}

// expandRange is kv.expandRange with the keys formed by simd.ExpandK and the
// values by alg.Times, a call per chunk: the same columns, chunks and flush
// schedule, so the same tuples in the same order.
func (l *generic[V]) expandRange(e *engine, t int, cursors []int64) {
	a, b := e.a, e.b
	capT := e.localCap
	shift, mask, colBits, binLo := e.rowShift, e.rowMask, e.colBits, uint32(e.binLo)
	gb := e.binHi - e.binLo
	stride := int64(gb) * int64(capT)
	bufK := e.ws.localKeys[int64(t)*stride : int64(t+1)*stride]
	bufV := l.localVals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*gb : (t+1)*gb]
	keys, vals := e.ws.tupleKeys, l.tupleVals
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
			bin := int32(r>>shift - binLo)
			localRow := (r & mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
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
				at := base + int64(ln)
				simd.ExpandK(bufK[at:at+take], localRow, b.ColIdx[q:q+take])
				times(bufV[at:at+take], av, bVal[q:q+take])
				ln += int32(take)
				q += take
			}
			lens[bin] = ln
		}
	}
	for bin := int32(0); bin < int32(gb); bin++ {
		flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
	}
}

// fuseBin is kv.fuseBin through alg.Plus.
func (l *generic[V]) fuseBin(e *engine, worker, bin int) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	keys, vals, rows := e.ws.tupleKeys[lo:hi], l.tupleVals[lo:hi], e.binRows(bin)
	n := hi - lo
	if e.denseBin(n) {
		slots := int64(1) << e.keyBits()
		acc := l.accVals[int64(worker)*slots:][:slots]
		return int64(radix.FoldDenseBy(keys, vals, acc, e.accBitsFor(worker, slots), rows, e.colBits, l.alg.Plus))
	}
	w0, w1 := e.scratchWordsFor(worker, n)
	return int64(radix.SortFoldBy(keys, vals, w0, w1, l.scratchVals[int64(worker)*e.scratchStride:][:n],
		int(e.keyBits()), rows, e.colBits, l.alg.Plus))
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
	gb := e.binHi - e.binLo
	stride := int64(gb) * int64(capT)
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
		lens:    e.ws.localLens[t*gb : (t+1)*gb],
		keys:    e.ws.tupleKeys,
		cursors: cursors, capT: capT, nt: e.ntFlush, binLo: uint32(e.binLo),
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
			bin := int32(r>>shift - lb.binLo)
			localRow := (r & mask) << colBits
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
	for bin := int32(0); bin < int32(gb); bin++ {
		lb.flush(bin)
	}
}

// patternBins is one worker's local bins of the pattern layout, indexed by
// the group's bins (bin − binLo): its keys, fill counts and cursors into the
// tuple keys, and how to flush them.
type patternBins struct {
	buf     []uint32
	lens    []int32
	keys    []uint32
	cursors []int64
	capT    int32
	nt      bool
	binLo   uint32
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
