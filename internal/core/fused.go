package core

import (
	"fmt"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/par"
	"pbspgemm/internal/radix"
)

// This file is the fused sort→fold phase: the paper's sort and compress
// phases (Sections III-D and III-E) run as one pass per bin while the bin is
// in cache, tallying row counts for assemble as it goes.
//
// One bin is folded by one of two flat kernels of internal/radix, chosen per
// bin by denseBin from the bin's tuple count, the packed key width
// rowShift+colBits and the bin cache budget:
//
//   - Dense bins (few key slots per tuple) fold through a pooled per-worker
//     direct-address accumulator — radix.FoldDense: each tuple read once,
//     each output written once, no sort at all.
//   - Every other bin runs radix.SortFold, a fixed-pass LSD radix over
//     key|index words that gathers each value once in the sweep that folds.
//
// The wide layout (64-bit keys, any value type and ⊕) takes the same rule to
// the same two shapes over whole 16-byte tuples: radix.FoldDensePairs where a
// bin's key space is small enough to address (a semiring product, or a forced
// wide one, on keys that would have fit 32 bits), radix.SortPairs — the
// fixed-pass LSD folding through the run's ⊕ as its last pass stores —
// everywhere else, which is every bin of a product whose keys pass 32 bits.
//
// All tally the bin's per-row output counts as they finish, so assemble has
// exact offsets the moment the phase ends. All are bit-identical to each
// other, and to a scalar fold in ascending k, by one argument: a stable sort
// leaves equal keys in arrival (expand) order, which is ascending k, and every
// fold is the chain "first value assigned, later ones added" over that order
// (TestFusedMatchesUnfusedBitIdentical, TestBothKernelsSameBytes and
// TestSpecialValuesThroughTheFold pin it).
//
// A budgeted run folds twice with these kernels: each panel's bins into runs,
// then each bin's gathered runs (panels.go). A run is duplicate-free and the
// runs lie in panel order, so the same argument makes the second fold the
// per-panel sums added in panel order, whichever kernel a bin gets.
//
// Bins fold whole, one bin per iteration of a dynamic parallel-for
// (par.ForEachDynamic), as the paper's Algorithm 2 sorts and compresses them.
// The phase therefore takes at least the largest bin's fold: 3.2 % of the
// tuples on R-MAT 2^16·d8 squared and 4.0 % on 2^17·d4, so splitting a bin
// across workers could only pay above some 25–30 threads.

// runSortPhase sorts, folds and tallies every bin ws.binStart lays out,
// filling binOut and, when non-nil, rowCounts. Threads==1 runs the bins
// sequentially with no scheduler, allocation-free.
func (e *engine) runSortPhase(binOut, rowCounts []int64) {
	threads := e.opt.Threads
	bs := e.ws.binStart
	// Size the per-worker scratch before any worker starts: sort planes for
	// the panel's largest sorted bin, and a direct-address accumulator and
	// its occupancy bitmap if any bin folds dense. Grow-only, all of it.
	var maxSeg, accSlots int64
	for bin := 0; bin < e.nbins; bin++ {
		n := bs[bin+1] - bs[bin]
		if e.denseBin(n) {
			accSlots = int64(1) << e.keyBits()
		} else if n > maxSeg {
			maxSeg = n
		}
	}
	if err := radix.CheckSegment(maxSeg); e.key32 && err != nil {
		e.latchAbort(fmt.Errorf("core: a bin of the %s layout: %w", e.layout, err))
		return
	}
	e.scratchStride = maxSeg
	e.lay.growScratch(e, int64(threads)*maxSeg, accSlots)
	growVals(&e.ws.accBits, int64(threads)*((accSlots+63)/64))
	if threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteSortTask, 0)
			}
			e.fuseWholeBin(0, bin, binOut, rowCounts)
		}
		return
	}
	par.ForEachDynamic(e.nbins, threads, func(worker, bin int) {
		defer e.containWorker(worker)
		if e.pollCancel() {
			return
		}
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteSortTask, worker)
		}
		e.fuseWholeBin(worker, bin, binOut, rowCounts)
	})
	e.st.SortOwned += int64(e.nbins) // += : budgeted runs fold once per panel, and once more
}

// fuseWholeBin folds one bin with the layout's fused kernel, which also
// tallies its row counts while the folded keys are hot. The folded prefix lands
// at the bin's own binStart offset.
func (e *engine) fuseWholeBin(worker, bin int, binOut, rowCounts []int64) {
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteFoldBin, worker)
	}
	binOut[bin] = e.lay.fuseBin(e, worker, bin, rowCounts)
}

// keyBits is the packed key width of the run's geometry; at most 32 on the
// key32 layouts.
func (e *engine) keyBits() uint { return e.rowShift + e.colBits }

// The per-bin kernel rule's two constants. A bin folds through the
// direct-address accumulator when its key space is at most denseSlotsPerTuple
// slots per tuple and the accumulator (one value slot per key, and one bit)
// is at most denseCacheFactor bin cache budgets. Both come from in-run pairs
// of the fuse phase (one thread, 2 MiB of L2): BENCHMARK.json's rmat_skew
// product (18-bit keys, 2 MiB accumulator) fuses in 98 / 77 / 74 ms at 4 /
// 16 / 64 slots per tuple, and its scale-14 sibling (19-bit keys, 4 MiB) in
// 848 / 260 ms at a factor of 2 / 4 — an accumulator spilling out of L2 still
// beats passes that stream an oversized bin from the next level.
// denseSlotsPerTuple is a variable so tests can force either kernel.
var denseSlotsPerTuple int64 = 16

const denseCacheFactor = 4

// denseFold is the rule itself, a pure function of the bin's tuple count, the
// packed key width, the layout's value width and the bin cache budget.
func denseFold(n int64, keyBits uint, valBytes, l2CacheBytes int64) bool {
	slots, budget := int64(1)<<keyBits, denseCacheFactor*l2CacheBytes
	return slots <= denseSlotsPerTuple*n && slots*valBytes <= budget && slots/8 <= budget
}

// denseBin applies the rule to a bin of n tuples of this run; a slot holds the
// tuple less its key.
func (e *engine) denseBin(n int64) bool {
	valBytes := e.tupleBytes - 4
	if !e.key32 {
		valBytes -= 4 // an 8-byte key
	}
	return denseFold(n, e.keyBits(), valBytes, int64(e.opt.L2CacheBytes))
}
