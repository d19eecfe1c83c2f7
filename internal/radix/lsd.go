package radix

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"pbspgemm/internal/simd"
)

// The sparse-bin kernel: a fixed-pass stable LSD radix over the packed
// 32-bit key. The digit plan is fixed up front (lsdPlan), one sweep fills
// every digit's histogram, and a digit all tuples agree on is skipped. The
// first scatter writes key<<32|index words, later passes move those words
// between two scratch planes, and the value plane stays where expand left it
// until the final sweep gathers each value once, in sorted order and — the
// passes being stable — in arrival order among equal keys: FoldDense's chain.

const (
	// maxDigitBits caps a digit at 2048 buckets: two passes cover a 22-bit
	// key and three any 32-bit key, while one pass's cursors (8 KiB) stay in
	// L1. minDigitBits keeps short segments from planning a pass per few
	// bits, and bounds the plan at maxPasses for any key of at most 32 bits.
	maxDigitBits = 11
	minDigitBits = 8
	maxPasses    = 4
	// FullDigitTuples is the shortest segment lsdPlan gives maxDigitBits digits.
	FullDigitTuples = 1 << maxDigitBits
	// bucketMask clamps a digit to its table: a no-op on values (a digit is
	// at most maxDigitBits wide) that lets the compiler drop the bounds check
	// from the histogram and scatter inner loops.
	bucketMask = 1<<maxDigitBits - 1
)

// histograms holds one counter (then cursor) table per planned pass.
type histograms [maxPasses][1 << maxDigitBits]uint32

// maxSegment is the longest segment the index-carrying sort can address with
// its 32-bit source index; a variable so tests can reach the limit.
var maxSegment = uint64(math.MaxUint32)

// ErrSegmentTooLarge reports a segment whose tuples a 32-bit source index
// cannot number.
var ErrSegmentTooLarge = errors.New("radix: segment too long for a 32-bit source index")

// CheckSegment returns ErrSegmentTooLarge when a segment of n tuples is too
// long for SortFoldBy. Callers size their scratch from n anyway and check
// there; SortFoldBy itself panics on a violation rather than wrap an index.
func CheckSegment(n int64) error {
	if uint64(n) > maxSegment {
		return fmt.Errorf("%w: %d", ErrSegmentTooLarge, n)
	}
	return nil
}

// lsdPlan splits keyBits into equal digits: as few passes as maxDigitBits
// (or, for a short segment, about log2 n) allows, each ⌈keyBits/passes⌉ wide.
func lsdPlan(n, keyBits int) (passes, digit int) {
	w := min(max(bits.Len(uint(n))-1, minDigitBits), maxDigitBits)
	passes = max((keyBits+w-1)/w, 1)
	return passes, (keyBits + passes - 1) / passes
}

// Passes is the number of scatter passes SortFoldBy and SortFoldPattern
// plan for n tuples of keyBits-bit keys; internal/core sizes
// bins by it.
func Passes(n, keyBits int) int {
	passes, _ := lsdPlan(n, keyBits)
	return passes
}

// count fills hist[p][d] with the number of keys whose p-th digit is d, for
// every planned pass in one sweep, and returns the OR of key^keys[0] over the
// segment: the bits on which the keys disagree. Keys that disagree at or
// above keyBits break the caller's precondition (a packed key wider than the
// engine planned) and panic rather than mis-sort.
func (hist *histograms) count(keys []uint32, passes, digit, keyBits int) uint32 {
	mask := uint32(1)<<digit - 1
	s1, s2, s3 := uint(digit)&31, uint(2*digit)&31, uint(3*digit)&31
	h0, h1, h2, h3 := &hist[0], &hist[1], &hist[2], &hist[3]
	k0 := keys[0]
	var diff uint32
	switch passes {
	case 1:
		for _, k := range keys {
			diff |= k ^ k0
			h0[k&mask&bucketMask]++
		}
	case 2:
		for _, k := range keys {
			diff |= k ^ k0
			h0[k&mask&bucketMask]++
			h1[k>>s1&mask&bucketMask]++
		}
	case 3:
		for _, k := range keys {
			diff |= k ^ k0
			h0[k&mask&bucketMask]++
			h1[k>>s1&mask&bucketMask]++
			h2[k>>s2&mask&bucketMask]++
		}
	default:
		for _, k := range keys {
			diff |= k ^ k0
			h0[k&mask&bucketMask]++
			h1[k>>s1&mask&bucketMask]++
			h2[k>>s2&mask&bucketMask]++
			h3[k>>s3&mask&bucketMask]++
		}
	}
	checkKeyBits(diff, keyBits)
	return diff
}

// checkKeyBits panics when diff, the OR of key^keys[0] over a segment, says
// its keys disagree at or above keyBits.
func checkKeyBits(diff uint32, keyBits int) {
	if diff>>keyBits != 0 {
		panic(fmt.Sprintf("radix: keys disagree above bit %d (diff %#x)", keyBits, diff))
	}
}

// starts turns the first 1<<digit counts of every table of hs into exclusive
// start offsets in place, two tables a sweep: two independent add chains, where
// a sweep per table ran one (2.1–2.8× faster at two 11-bit digits, one Xeon
// core). An odd last table pairs with itself; both chains store its offsets.
func starts(hs [][1 << maxDigitBits]uint32, digit int) {
	for t := 0; t < len(hs); t += 2 {
		h0, h1 := &hs[t], &hs[min(t+1, len(hs)-1)]
		var s0, s1 uint32
		for d := range 1 << digit {
			d &= bucketMask
			c0, c1 := h0[d], h1[d]
			h0[d], h1[d], s0, s1 = s0, s1, s0+c0, s1+c1
		}
	}
}

// The LSD passes are leaves, each a frame of its own: scatterIndexed is
// SortFoldBy's first pass (key<<32|index words), scatterWords each later one
// (shift ≥ 32 counts from the word's bit 0), scatterKeys each pass of
// SortFoldPattern. Inlined into the sort's frame (32 KiB of histograms) the
// loop's key and digit were reloaded from the stack every tuple (go tool
// objdump at PR 24). Prototyped at PR 25 and lost, not to be retried: the
// fold sweep as a leaf (+10 % fuse), a two-stream scatter (6.0 ns a tuple
// against 3.6), write-combining line buffers per bucket (8.2 against 4.8),
// 13-bit digits (5.8 ns a pass against 3.4 at 9 bits), a split count table
// (−8 % of the count, a sliver of the sort).

//go:noinline
func scatterIndexed(keys []uint32, dst []uint64, h *[1 << maxDigitBits]uint32, shift uint, mask uint32) {
	for i, k := range keys {
		d := k >> (shift & 31) & mask & bucketMask
		dst[h[d]] = uint64(k)<<32 | uint64(i)
		h[d]++
	}
}

//go:noinline
func scatterWords(src, dst []uint64, h *[1 << maxDigitBits]uint32, shift uint, mask uint32) {
	for _, w := range src {
		d := uint32(w>>(shift&63)) & mask & bucketMask
		dst[h[d]] = w
		h[d]++
	}
}

//go:noinline
func scatterKeys(src, dst []uint32, h *[1 << maxDigitBits]uint32, shift uint, mask uint32) {
	for _, k := range src {
		d := k >> (shift & 31) & mask & bucketMask
		dst[h[d]] = k
		h[d]++
	}
}

// Tally adds the folded keys' per-row counts to rows[key>>colBits] (rows ==
// nil skips it). The keys are sorted, so a row is a run. Where the key four
// ahead is still in the row, the run gallops (probes 8, 16, 32, … keys past
// its start, then a binary search of the last step) and is stored once: a
// dense bin's runs are whole rows, hundreds of keys a compare per key walked.
// Elsewhere the next four keys take an increment each, with no branch on the
// row to mispredict: mixed runs of 1–3 keys count in half the time a compare
// per key took, all-singleton runs in about the same (BenchmarkTally).
func Tally(keys []uint32, rows []int64, colBits uint) {
	if rows == nil {
		return
	}
	for i := 0; i < len(keys); {
		row := keys[i] >> colBits
		if i+4 >= len(keys) || keys[i+4]>>colBits != row {
			for end := min(i+4, len(keys)); i < end; i++ {
				rows[keys[i]>>colBits]++
			}
			continue
		}
		lo, hi := i+4, i+8 // keys[lo] is in the run; hi is past it or len(keys)
		for hi < len(keys) && keys[hi]>>colBits == row {
			lo, hi = hi, 2*hi-i
		}
		for hi = min(hi, len(keys)); hi-lo > 1; {
			if mid := int(uint(lo+hi) >> 1); keys[mid]>>colBits == row {
				lo = mid
			} else {
				hi = mid
			}
		}
		rows[row] += int64(hi - i)
		i = hi
	}
}

// emit is every fold's last step: it tallies the folded keys (Tally), then
// writes them to the prefix of dst masked to their column ids, and returns
// their count. keys is dst's prefix or lies after it in the same plane.
func emit(dst, keys []uint32, rows []int64, colBits uint) int {
	Tally(keys, rows, colBits)
	cm := uint32(uint64(1)<<colBits - 1)
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = k & cm
	}
	return len(keys)
}

// shortSegment is the longest segment SortFoldBy and SortFoldPattern sort by
// insertion: LSD's 32 KiB of histograms cost it more than the sort (the
// near-empty bins of a hypersparse product's 32-bit keys, internal/core).
const shortSegment = 32

func insertionSort[K uint32 | uint64](s []K) {
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && s[j-1] > x; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// SortFoldBy stably sorts keys/vals by the low keyBits bits of the key — all
// keys must agree on the bits above — and folds each equal-key group through
// plus: the first value assigned, each later one folded in as plus(acc, v),
// in arrival order. It writes the folded tuples to the prefix of dk/dv as
// column ids and values (emit), and the folded count is returned. dk/dv may
// be keys/vals or start before them in the same planes: the sweep writes no
// key it has not read, and the values go out in one copy at its end. w0, w1
// and tmp are scratch planes of at least len(keys); their contents are
// clobbered. (+, ×) runs it with a typed add: a typed twin that gathered
// values a block ahead of its fold was no faster on the benchmark products,
// end to end.
//
// Measured and lost, not to be retried: a row-first fold of a cf ≈ 1 bin (a
// stable pass on the local row, then an in-L1 merge of each row's ascending
// runs). On 64 Ki tuples of 26-bit keys in 8-tuple runs it took 29.4–30.9 ns
// a tuple branchy against 12.4–12.9 here, 23.5–24.1 branchless against
// 14.9–15.8, 31–44 on 4-tuple runs. Two-pass bins (internal/core) won instead.
func SortFoldBy[V any](keys []uint32, vals []V, dk []uint32, dv []V, w0, w1 []uint64, tmp []V, keyBits int, rows []int64, colBits uint, plus func(a, b V) V) int {
	n := len(keys)
	vals = vals[:n]
	if n < 2 {
		copy(dv, vals)
		return emit(dk, keys, rows, colBits)
	}
	cur := sortWords(keys, w0, w1, keyBits)
	if cur == nil { // every key equal: arrival order is the sorted order
		v := vals[0]
		for _, x := range vals[1:] {
			v = plus(v, x)
		}
		dv[0] = v
		return emit(dk, keys[:1], rows, colBits)
	}
	// By now the value plane has left the private caches (two to four
	// planes of tuples have streamed through since expand wrote it); fetching
	// it back as one sequential stream is cheaper than the gather's misses.
	simd.PrefetchSlice(vals)
	tmp = tmp[:n]
	out := 0
	pk, acc := uint32(cur[0]>>32), vals[uint32(cur[0])]
	for _, w := range cur[1:] {
		k, v := uint32(w>>32), vals[uint32(w)]
		if k == pk {
			acc = plus(acc, v)
			continue
		}
		dk[out], tmp[out] = pk, acc
		out++
		pk, acc = k, v
	}
	dk[out], tmp[out] = pk, acc
	out++
	copy(dv, tmp[:out])
	return emit(dk, dk[:out], rows, colBits)
}

// sortWords stably sorts the key<<32|index words of keys (at least two) by the
// low keyBits bits of the key, in w0 and w1, and returns the plane that holds
// them sorted — or nil when every key is equal, so arrival order is the
// sorted order.
func sortWords(keys []uint32, w0, w1 []uint64, keyBits int) []uint64 {
	n := len(keys)
	if uint64(n) > maxSegment {
		panic(ErrSegmentTooLarge)
	}
	if n <= shortSegment {
		// key<<32|index words sort stably as plain integers.
		cur := w0[:n]
		var diff uint32
		for i, k := range keys {
			diff |= k ^ keys[0]
			cur[i] = uint64(k)<<32 | uint64(i)
		}
		checkKeyBits(diff, keyBits)
		insertionSort(cur)
		return cur
	}
	passes, digit := lsdPlan(n, keyBits)
	var hist histograms
	diff := hist.count(keys, passes, digit, keyBits)
	if diff == 0 {
		return nil
	}
	mask := uint32(1)<<digit - 1
	starts(hist[:passes], digit)
	var cur, alt []uint64
	for p := 0; p < passes; p++ {
		shift := uint(p*digit) & 31
		if diff>>shift&mask == 0 {
			continue // all tuples agree on this digit
		}
		h := &hist[p]
		if cur == nil {
			cur, alt = w0[:n], w1[:n]
			scatterIndexed(keys, cur, h, shift, mask)
			continue
		}
		scatterWords(cur, alt, h, shift+32, mask)
		cur, alt = alt, cur
	}
	return cur
}

// SortFoldPattern is SortFoldBy for the key-only pattern layout: the passes
// move bare 4-byte keys between keys and aux (at least len(keys) long,
// clobbered) and the fold is deduplication, into the prefix of dk.
func SortFoldPattern(keys, aux, dk []uint32, keyBits int, rows []int64, colBits uint) int {
	n := len(keys)
	if n < 2 {
		return emit(dk, keys, rows, colBits)
	}
	cur, alt := keys, aux[:n]
	if n <= shortSegment {
		var diff uint32
		for _, k := range keys {
			diff |= k ^ keys[0]
		}
		checkKeyBits(diff, keyBits)
		insertionSort(keys)
	} else {
		passes, digit := lsdPlan(n, keyBits)
		var hist histograms
		diff := hist.count(keys, passes, digit, keyBits)
		if diff == 0 { // every key equal: one survives
			return emit(dk, keys[:1], rows, colBits)
		}
		mask := uint32(1)<<digit - 1
		starts(hist[:passes], digit)
		for p := 0; p < passes; p++ {
			shift := uint(p*digit) & 31
			if diff>>shift&mask == 0 {
				continue
			}
			scatterKeys(cur, alt, &hist[p], shift, mask)
			cur, alt = alt, cur
		}
	}
	// Dedup into the prefix of dk; where cur is keys, dk starts at or before
	// it, so the write position never passes the read position.
	out := 0
	pk := cur[0]
	for _, k := range cur[1:] {
		if k == pk {
			continue
		}
		dk[out] = pk
		out++
		pk = k
	}
	dk[out] = pk
	return emit(dk, dk[:out+1], rows, colBits)
}
