package core

import (
	"fmt"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/radix"
)

// This file is the fused sort→fold phase: the paper's sort and compress
// phases (Sections III-D and III-E) run as one pass per bin while the bin is
// in cache, tallying row counts for assemble as it goes.
//
// denseBin picks one of two flat kernels of internal/radix per bin, from its
// tuple count, its packed key width rowShift+colBits and the cache budget:
//
//   - Dense bins (few key slots a tuple, or few bitmap words a tuple over an
//     L2-resident key space) fold through a pooled per-worker
//     direct-address accumulator, radix.FoldDense: each tuple read once,
//     each output written once, no sort. An auto geometry's dense bins are
//     cut until the accumulator, its bitmap and the bin fit L2
//     (planBinGeometry).
//   - Every other bin runs radix.SortFold, a fixed-pass LSD radix over
//     key|index words that gathers each value once in the sweep that folds.
//
// The generic layout (any value type and ⊕) takes the same rule to the same
// two kernels with the caller's ⊕ in place of +: radix.FoldDenseBy and
// radix.SortFoldBy.
//
// All tally the bin's per-row output counts as they finish, so assemble has
// exact offsets the moment the phase ends. All are bit-identical to each
// other, and to a scalar fold in ascending k: a stable sort leaves equal keys
// in arrival (expand) order, which is ascending k, and every fold is the
// chain "first value assigned, later ones added" over that order
// (TestFusedMatchesUnfusedBitIdentical, TestBothKernelsSameBytes,
// TestSpecialValuesThroughTheFold). A budgeted run folds each bin once too,
// in the group that holds it, so its bytes are the unbudgeted run's.
//
// Bins fold whole, one per iteration of forEachBin's dynamic parallel-for, as
// Algorithm 2 sorts and compresses them. The phase takes at least the largest
// bin's fold: 3.2 % of the tuples on R-MAT 2^16·d8 squared and 4.0 % on
// 2^17·d4, so splitting a bin could only pay above some 25–30 threads.

// runSortPhase sorts, folds and tallies every bin of the running group,
// filling ws.binOut and e.tally (forEachBin schedules them).
func (e *engine) runSortPhase() {
	threads := e.opt.Threads
	bs := e.ws.binStart
	// Size the per-worker scratch before any worker starts: sort planes for
	// the group's largest sorted bin, and a direct-address accumulator and
	// its occupancy bitmap if any bin folds dense. Grow-only, all of it.
	var maxSeg, accSlots int64
	for bin := e.binLo; bin < e.binHi; bin++ {
		n := bs[bin+1] - bs[bin]
		if e.denseBin(n) {
			accSlots = int64(1) << e.keyBits()
		} else if n > maxSeg {
			maxSeg = n
		}
	}
	if err := radix.CheckSegment(maxSeg); err != nil {
		e.latchAbort(fmt.Errorf("core: a bin of the %s layout: %w", e.layout, err))
		return
	}
	e.scratchStride = maxSeg
	e.lay.growScratch(e, int64(threads)*maxSeg, accSlots)
	growVals(&e.ws.accBits, int64(threads)*((accSlots+63)/64))
	e.forEachBin(faultinject.SiteSortTask, fuseWholeBin)
	if threads > 1 {
		e.st.SortOwned += int64(e.binHi - e.binLo) // += : a budgeted run's groups add up to its bins
	}
}

// fuseWholeBin folds one bin with the layout's fused kernel, which also
// tallies its row counts while the folded keys are hot. The folded prefix lands
// at the bin's own binStart offset.
func fuseWholeBin(e *engine, worker, bin int) {
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteFoldBin, worker)
	}
	e.ws.binOut[bin] = e.lay.fuseBin(e, worker, bin)
}

// keyBits is the packed key width of the run's geometry, at most 32.
func (e *engine) keyBits() uint { return e.rowShift + e.colBits }

// The per-bin kernel rule: a bin folds through the direct-address accumulator
// (a value slot and a bit per key) when either clause holds. Warm: accumulator
// and bitmap fit the bin cache budget, and the bitmap is at most 8 words a
// tuple. The accumulator is touched only at the tuples' own slots, so the
// bitmap walk is the one per-slot cost, for every value width: on a bin of
// rmat_skew's 16-bit keys FoldDense took 4.7 / 6.7 / 14.0 / 18.3 ns a tuple
// against SortFold's 9.0 / 9.9 / 19.4 / 15.5 at 1 / 4 / 8 / 16 words a tuple
// (FoldDensePattern against SortFoldPattern alike). Cold: at most
// denseSlotsPerTuple slots a tuple and an accumulator of at most
// denseCacheFactor budgets, from the fuse of rmat_skew's product at the flop
// rule's 256 bins (18-bit keys, 2 MiB of L2): 98 / 77 / 74 ms at 4 / 16 / 64
// slots a tuple; its scale-14 sibling (4 MiB) 848 / 260 ms at a factor of 2 /
// 4. Both counts are variables so tests can force either kernel.
var denseSlotsPerTuple, warmSlotsPerTuple int64 = 16, 64 * 8

const denseCacheFactor = 4

// denseFold is the rule itself, a pure function of the bin's tuple count, the
// packed key width, the layout's value width and the bin cache budget.
func denseFold(n int64, keyBits uint, valBytes, l2CacheBytes int64) bool {
	if n <= 0 {
		return false
	}
	slots := int64(1) << keyBits
	if slots*valBytes+slots/8 <= l2CacheBytes {
		return slots <= warmSlotsPerTuple*n
	}
	budget := denseCacheFactor * l2CacheBytes
	return slots <= denseSlotsPerTuple*n && slots*valBytes <= budget && slots/8 <= budget
}

// denseBin applies the rule to a bin of n tuples of this run; a slot holds the
// tuple less its key.
func (e *engine) denseBin(n int64) bool {
	return denseFold(n, e.keyBits(), e.tupleBytes-4, int64(e.opt.L2CacheBytes))
}
