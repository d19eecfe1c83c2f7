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

// This file is the layout layer. SpGEMM is bandwidth-bound, so bytes a tuple
// are the lever: a structural product needs no values (4-byte tuples) and
// float32/int32 half a value plane (8 bytes). Every layout packs its keys
// into a 32-bit plane the Workspace shares and differs only in the value
// plane beside it. Each is a layoutOps; every phase dispatches element
// accesses through the run's one (e.lay), while all control flow stays
// layout-independent, which keeps the layouts bit-identical in structure.
//
// The two implementations:
//
//   - values[V]: the key plane beside a plane of any V, 4 + sizeof(V) bytes
//     a tuple, with one expand walk and one bin fold. Its ⊗ and its two bin
//     folds are bound once per call (binding): a zero Algebra over float64,
//     float32 or int32 is (+, ×) on the typed kernels — simd.ExpandKV,
//     radix.FoldDense, and radix.SortFoldBy with a typed add — and runs as
//     the squeezed (12-byte) or narrow (8-byte) layout; any other Algebra
//     forms keys with simd.ExpandK beside its Times and folds through its
//     Plus (radix.FoldDenseBy, radix.SortFoldBy) as the generic layout. A
//     typed chunk is one call to the bound ExpandKV instance, whose loop
//     inlines into it, and a bin is one call to a fold: binding per call
//     adds no call to the tuple loops.
//   - patternOps: bare []uint32 keys, 4 bytes per tuple; the fold is
//     deduplication and the result CSR carries no Val array. Its walk stays
//     its own, as simd.ExpandK inlines into it.
//
// patternOps is zero-size and a values is reached by pointer (&ws.f64 or
// ws.vals), so binding e.lay per call allocates nothing.

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
	// cut cuts A, values included, for bin groups (cutA): the walks read the cut.
	cut(e *engine)
	// expandRange is one worker's outer-product expansion with propagation
	// blocking over the running group's columns [colBounds[t], colBounds[t+1])
	// (engine.cols).
	expandRange(e *engine, t int, cursors []int64)
	// growScratch sizes the layout's per-worker sort-phase scratch: total
	// tuples (threads × engine.scratchStride) of sort planes plus, when the
	// group has dense bins, accSlots (1<<keyBits) accumulator slots a worker.
	growScratch(e *engine, total, accSlots int64)
	// fuseBin sorts and folds bin (its tuples lie at ws.binStart[bin:bin+2])
	// on the given worker's scratch, writes the folded tuples — column ids and
	// values — to the tuple planes at dst (at most the bin's start), returns
	// their count, and tallies their rows into e.tally. Rows of a bin are
	// touched by no other bin, so the shared slice needs no synchronization.
	fuseBin(e *engine, worker, bin int, dst int64) int64
	// growOut sizes the result's value plane to nnzc (resultPlane), copyOut
	// copies n values at srcOff of the tuple plane to it at dstOff, and
	// handOver makes the tuple plane's first n values it, if arenaFits.
	// dropArena forgets the tuple planes a detached result took over.
	growOut(e *engine, nnzc int64)
	copyOut(e *engine, srcOff, dstOff, n int64)
	handOver(e *engine, n int64) bool
	dropArena(ws *Workspace)
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

// checkPlanes rejects value planes shorter than the index arrays they run
// parallel to.
func checkPlanes(a *matrix.CSC, na int, b *matrix.CSR, nb int) error {
	if na < len(a.RowIdx) || nb < len(b.ColIdx) {
		return fmt.Errorf("core: value planes shorter than their index arrays (%d < %d or %d < %d): %w",
			na, len(a.RowIdx), nb, len(b.ColIdx), matrix.ErrShape)
	}
	return nil
}

// Algebra is what a value-layout run multiplies over. Times forms the values
// of one chunk of expanded tuples, dst[j] = a ⊗ b[j] (len(b) ≥ len(dst); the
// keys are already in place): one indirect call per chunk — per tuple it
// costs expand as much again as the walk itself. Plus folds the values of
// equal keys, left to right in arrival order (a stable sort keeps that
// order, so the fold is defined even where Plus does not commute or
// associate exactly). Both run on worker goroutines; a panic in either is
// contained like any worker panic.
//
// The zero Algebra is (+, ×) over float64, float32 or int32, run on the
// typed kernels; it has no meaning over any other value type.
type Algebra[V any] struct {
	Times func(dst []V, a V, b []V)
	Plus  func(a, b V) V
}

// binding is what a value layout multiplies and folds with, set once per call
// by MultiplyGeneric: a typed (+, ×) binding below for a zero Algebra, else
// the caller's Algebra with no typed kernels.
type binding[V any] struct {
	Algebra[V]
	// layout is what the run reports: squeezed or narrow for a typed binding,
	// generic for a function one.
	layout Layout
	// The typed kernels, nil in a function binding: expandKV forms a chunk's
	// keys and values in one pass where ExpandK and Times take two, and
	// foldDense folds a dense bin with + where FoldDenseBy calls Plus. A
	// sorted bin folds through Plus in either binding (radix.SortFoldBy): a
	// typed Plus is an add, and the sort's passes, not the fold, are its cost.
	expandKV  func(dk []uint32, dv []V, localRow uint32, cols []int32, bv []V, a V)
	foldDense func(keys []uint32, vals []V, dk []uint32, dv, acc []V, occ []uint64, rows []int64, colBits uint) int
}

// The typed (+, ×) bindings. They are concrete instances, so binding one
// copies static function values and allocates nothing.
var (
	plusTimesF64 = binding[float64]{Algebra: Algebra[float64]{Plus: add[float64]}, layout: LayoutSqueezed,
		expandKV: simd.ExpandKV[float64], foldDense: radix.FoldDense[float64]}
	plusTimesF32 = binding[float32]{Algebra: Algebra[float32]{Plus: add[float32]}, layout: LayoutNarrow,
		expandKV: simd.ExpandKV[float32], foldDense: radix.FoldDense[float32]}
	plusTimesI32 = binding[int32]{Algebra: Algebra[int32]{Plus: add[int32]}, layout: LayoutNarrow,
		expandKV: simd.ExpandKV[int32], foldDense: radix.FoldDense[int32]}
)

// add is the typed bindings' ⊕.
func add[V radix.Numeric](a, b V) V { return a + b }

// bindingOf is alg's binding over V: the typed (+, ×) one for a zero Algebra,
// a function binding for any other.
func bindingOf[V any](alg Algebra[V]) (binding[V], error) {
	if alg.Times != nil || alg.Plus != nil {
		return binding[V]{Algebra: alg, layout: LayoutGeneric}, nil
	}
	for _, typed := range [...]any{&plusTimesF64, &plusTimesF32, &plusTimesI32} {
		if b, ok := typed.(*binding[V]); ok {
			return *b, nil
		}
	}
	return binding[V]{}, fmt.Errorf("core: the zero Algebra is (+, ×) over float64, float32 or int32, not %T", *new(V))
}

// values is the value layout's planes of one V, pooled grow-only beside the
// Workspace's shared key planes, and the call's binding.
type values[V any] struct {
	tupleVals   []V
	localVals   []V
	outVal      []V
	scratchVals []V
	accVals     []V // dense-fold accumulators, all-zero between bins
	aCut        []V // A's values, cut group-major (cutA)

	// Per-call: the value planes of A (the input's, parallel to a.RowIdx, or
	// its cut) and B (parallel to b.ColIdx), the result's value destination
	// and the binding, none of which a pooled
	// workspace may pin: unbind clears the inputs and the binding, and
	// MultiplyGeneric the destination once it has read it.
	aVal, bVal, out []V
	binding[V]

	// flat: V holds no pointers, so the non-temporal flush — a raw byte copy,
	// no GC write barriers, bytewise at its unaligned ends — may move its values.
	flat bool
}

// valuePool is what the Workspace asks of its pooled *values[V], whatever V
// is.
type valuePool interface {
	// unbind drops the per-call references a pooled workspace must not pin.
	// The result plane stays: the entry point reads it after the run.
	unbind()
	tupleCapBytes() int64
	detachOut()
}

func (l *values[V]) unbind() { l.aVal, l.bVal, l.binding = nil, nil, binding[V]{} }

// tupleCapBytes reports the value plane's pooled capacity; Workspace
// .TupleCapBytes adds it to the shared key arena's.
func (l *values[V]) tupleCapBytes() int64 {
	var v V
	return int64(cap(l.tupleVals)) * int64(unsafe.Sizeof(v))
}

// detachOut forgets the pooled result plane (Workspace.DetachOutput).
func (l *values[V]) detachOut() { l.outVal = nil }

// valuesOf returns the workspace's pooled value layout for V: the float64
// slot, which Multiply and every float64 semiring share, or the slot of the
// most recent other V, created on first use — alternating two other value
// types reallocates, a stable one reuses.
func valuesOf[V any](ws *Workspace) *values[V] {
	if l, ok := any(&ws.f64).(*values[V]); ok {
		l.flat = true // a float64 holds no pointer
		return l
	}
	if l, ok := ws.vals.(*values[V]); ok {
		return l
	}
	l := &values[V]{flat: pointerFree(reflect.TypeFor[V]())}
	ws.vals = l
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

// MultiplyGeneric computes C = A ⊗ B over alg for any value type, on the
// value layout: the pipeline of Multiply — 32-bit keys in bins cut by the
// same rules, parallel propagation-blocked expand, fused sort and fold, bin
// groups, sub-phase cancellation, worker-panic containment — with alg's ⊗
// and ⊕ bound once for the call. Its tuples are 4 + sizeof(V) bytes. A zero
// alg runs (+, ×) on the typed kernels (float64, float32 and int32 only;
// Multiply is its float64 instance), any other alg.Times where Multiply
// multiplies and alg.Plus where it adds. The inputs are the structural
// CSC/CSR (Val never read, may be nil) plus value planes parallel to
// a.RowIdx and b.ColIdx, and the result is the structural CSR plus its value
// plane, aliasing workspace memory when opt.Workspace is set.
func MultiplyGeneric[V any](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, alg Algebra[V], opt Options) (*matrix.CSR, []V, *Stats, error) {
	opt = opt.withDefaults()
	if err := checkPlanes(a, len(aVal), b, len(bVal)); err != nil {
		return nil, nil, nil, err
	}
	bind, err := bindingOf(alg)
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := newEngine(a, b, opt, bind.layout)
	if err != nil {
		return nil, nil, nil, err
	}
	l := valuesOf[V](e.ws)
	l.aVal, l.bVal, l.binding = aVal, bVal, bind
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

func (l *values[V]) cut(e *engine) { l.aVal = cutA(e, l.aVal, &l.aCut) }

func (l *values[V]) growTuples(e *engine, n int64) {
	radix.GrowUint32(&e.ws.tupleKeys, n)
	matrix.Grow(&l.tupleVals, int(n))
}

func (l *values[V]) growLocals(e *engine, n int64) {
	radix.GrowUint32(&e.ws.localKeys, n)
	matrix.Grow(&l.localVals, int(n))
}

func (l *values[V]) growScratch(e *engine, total, accSlots int64) {
	matrix.Grow(&e.ws.scratchWords, int(2*total))
	matrix.Grow(&l.scratchVals, int(total))
	matrix.Grow(&l.accVals, e.opt.Threads*int(accSlots))
}

func (l *values[V]) growOut(e *engine, nnzc int64) { l.out = resultPlane(e, l.out, &l.outVal, nnzc) }

func (l *values[V]) copyOut(e *engine, srcOff, dstOff, n int64) {
	copy(l.out[dstOff:dstOff+n], l.tupleVals[srcOff:srcOff+n])
}

func (l *values[V]) handOver(e *engine, n int64) bool {
	if !arenaFits(cap(l.tupleVals), n) {
		return false
	}
	l.out = l.tupleVals[:n:n]
	return true
}

func (l *values[V]) dropArena(ws *Workspace) { ws.tupleKeys, l.tupleVals = nil, nil }

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

// expandRange is one worker's share of expand: the group's columns
// [colBounds[t], colBounds[t+1]), propagation-blocked — the 4-byte key
// and the V value go into split local bins, each flushed with two bulk copies
// into the worker's exclusive range. cursors is the worker's private per-bin
// write-position array, pre-seeded with its exclusive offsets; it, the local
// bins and their fill counts are indexed by the group's bins, bin − binLo.
// A chunk's keys and values come from the typed expandKV in one pass, or
// from simd.ExpandK and then Times: the same chunks and flushes either way.
func (l *values[V]) expandRange(e *engine, t int, cursors []int64) {
	b, cols, ptr, rows := e.b, e.cols, e.ptr, e.rows
	capT := e.localCap
	shift, mask, colBits, binLo := e.rowShift, e.rowMask, e.colBits, uint32(e.binLo)
	gb := e.binHi - e.binLo
	stride := int64(gb) * int64(capT)
	bufK := e.ws.localKeys[int64(t)*stride : int64(t+1)*stride]
	bufV := l.localVals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*gb : (t+1)*gb]
	keys, vals := e.ws.tupleKeys, l.tupleVals
	aVal, bVal, expandKV := l.aVal, l.bVal, l.expandKV
	nt := e.ntFlush && l.flat

	var sincePoll int64
	for j := e.ws.colBounds[t]; j < e.ws.colBounds[t+1]; j++ {
		bLo, bHi, pLo, pHi := b.RowPtr[cols[j]], b.RowPtr[cols[j]+1], ptr[j], ptr[j+1]
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
			r := uint32(rows[p])
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
				at := base + int64(ln)
				dk, dv, cols, bv := bufK[at:at+take], bufV[at:at+take], b.ColIdx[q:q+take], bVal[q:q+take]
				if expandKV != nil {
					expandKV(dk, dv, localRow, cols, bv, av)
				} else {
					l.expandBy(dk, dv, localRow, cols, bv, av)
				}
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

// expandBy is a function binding's chunk: keys by simd.ExpandK, values by
// Times. It is a call of its own: inlined into expandRange, ExpandK's loop
// reloaded its counter and operands from the stack every tuple (+15–20 %
// expand on MinPlus), the walk's other values holding the registers.
func (l *values[V]) expandBy(dk []uint32, dv []V, localRow uint32, cols []int32, bv []V, av V) {
	simd.ExpandK(dk, localRow, cols)
	l.Times(dv, av, bv)
}

// fuseBin folds bin with the binding's kernels: the dense fold (typed or
// through Plus) or the sort (through Plus), picked per bin by denseBin.
func (l *values[V]) fuseBin(e *engine, worker, bin int, dst int64) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	keys, vals, rows := e.ws.tupleKeys[lo:hi], l.tupleVals[lo:hi], e.binRows(bin)
	dk, dv := e.ws.tupleKeys[dst:hi], l.tupleVals[dst:hi]
	n := hi - lo
	if e.denseBin(n) {
		slots := int64(1) << e.keyBits()
		acc, occ := l.accVals[int64(worker)*slots:][:slots], e.accBitsFor(worker, slots)
		if l.foldDense != nil {
			return int64(l.foldDense(keys, vals, dk, dv, acc, occ, rows, e.colBits))
		}
		return int64(radix.FoldDenseBy(keys, vals, dk, dv, acc, occ, rows, e.colBits, l.Plus))
	}
	w0, w1 := e.scratchWordsFor(worker, n)
	tmp := l.scratchVals[int64(worker)*e.scratchStride:][:n]
	return int64(radix.SortFoldBy(keys, vals, dk, dv, w0, w1, tmp, int(e.keyBits()), rows, e.colBits, l.Plus))
}

// ---------------------------------------------------------------------------
// patternOps: the 4-byte key-only layout.

type patternOps struct{}

func (patternOps) cut(e *engine)                 { cutA[struct{}](e, nil, nil) }
func (patternOps) growTuples(e *engine, n int64) { radix.GrowUint32(&e.ws.tupleKeys, n) }
func (patternOps) growLocals(e *engine, n int64) { radix.GrowUint32(&e.ws.localKeys, n) }

// expandRange is the key-only expansion: same walk, no value multiply — the
// tuple IS its packed key, and a flush moves one plane.
func (patternOps) expandRange(e *engine, t int, cursors []int64) {
	b, cols, ptr, rows := e.b, e.cols, e.ptr, e.rows
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
		bLo, bHi, pLo, pHi := b.RowPtr[cols[j]], b.RowPtr[cols[j]+1], ptr[j], ptr[j+1]
		if bLo == bHi {
			continue
		}
		// Per-column cancellation poll, as in values.expandRange.
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
			r := uint32(rows[p])
			bin := int32(r>>shift - lb.binLo)
			localRow := (r & mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lb.lens[bin]
			// Chunked like values.expandRange: flush boundaries match the
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
func (patternOps) fuseBin(e *engine, worker, bin int, dst int64) int64 {
	lo, hi := e.ws.binStart[bin], e.ws.binStart[bin+1]
	keys, dk, rows := e.ws.tupleKeys[lo:hi], e.ws.tupleKeys[dst:hi], e.binRows(bin)
	if e.denseBin(hi - lo) {
		return int64(radix.FoldDensePattern(keys, e.accBitsFor(worker, int64(1)<<e.keyBits()), dk, rows, e.colBits))
	}
	return int64(radix.SortFoldPattern(keys, e.ws.scratchKeys[int64(worker)*e.scratchStride:][:hi-lo], dk,
		int(e.keyBits()), rows, e.colBits))
}

// Pattern results are structural: c.Val stays nil by design, so the result
// has no value plane to size, fill or take over.
func (patternOps) growOut(*engine, int64)               {}
func (patternOps) copyOut(*engine, int64, int64, int64) {}
func (patternOps) handOver(*engine, int64) bool         { return true }
func (patternOps) dropArena(ws *Workspace)              { ws.tupleKeys = nil }
