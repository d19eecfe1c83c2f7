package radix

import "math/bits"

// Numeric is the value constraint of the folding kernels: the engine's
// semiring fast paths fold with +, so a fold needs addition — float64 (the
// squeezed layout), float32 and int32 (the narrow layout).
type Numeric interface {
	~float32 | ~float64 | ~int32
}

// FoldDense is the dense-bin kernel: a radix sort whose one digit is the
// whole packed key, with the merge fused into it. acc holds one value slot
// per possible key (len(acc) = 1<<keyBits) and occ one occupancy bit per
// slot (len(occ)·64 ≥ len(acc)); both must be all-zero on entry and are
// all-zero again on return, so a pooled pair serves bin after bin.
//
// Tuples are visited in arrival order, and a slot's first value is ASSIGNED,
// later ones added — the left-to-right chain a two-pointer compress runs
// over a stably sorted bin, so the folded values are bit-identical to
// sort-then-compress (a bare += into the zeroed slot would turn an all −0.0
// group into +0.0). The occupancy bitmap is then walked in key order: each
// set bit emits one folded tuple into the prefix of keys/vals and clears its
// slot; the emitted keys' rows are then tallied into rows[key>>colBits]
// (rows == nil skips it). Each tuple is read once and each output written
// once. A key ≥ len(acc) is a bounds panic, never a wrap. Returns the folded
// tuple count.
func FoldDense[V Numeric](keys []uint32, vals, acc []V, occ []uint64, rows []int64, colBits uint) int {
	vals = vals[:len(keys)]
	for i, k := range keys {
		w, b := k>>6, uint64(1)<<(k&63)
		// A slot at rest holds +0, and +0 + v is v for every first value but
		// −0.0: so "assign first, add later" is one unconditional add plus
		// a fix-up behind a test real data almost never passes — where a
		// branch on the occupancy bit would mispredict once per output.
		sum := acc[k] + vals[i]
		if sum == 0 && occ[w]&b == 0 {
			sum = vals[i]
		}
		acc[k] = sum
		occ[w] |= b
	}
	out := 0
	for wi, word := range occ {
		if word == 0 {
			continue
		}
		occ[wi] = 0
		base := uint32(wi) << 6
		for ; word != 0; word &= word - 1 {
			k := base | uint32(bits.TrailingZeros64(word))
			keys[out], vals[out] = k, acc[k]
			acc[k] = 0
			out++
		}
	}
	Tally(keys[:out], rows, colBits)
	return out
}

// FoldDensePattern is FoldDense for the key-only pattern layout, whose fold
// is deduplication: the occupancy bitmap alone is the accumulator. occ must
// cover every key (len(occ)·64 > max key), all-zero on entry and on return.
func FoldDensePattern(keys []uint32, occ []uint64, rows []int64, colBits uint) int {
	for _, k := range keys {
		occ[k>>6] |= 1 << (k & 63)
	}
	out := 0
	for wi, word := range occ {
		if word == 0 {
			continue
		}
		occ[wi] = 0
		base := uint32(wi) << 6
		for ; word != 0; word &= word - 1 {
			k := base | uint32(bits.TrailingZeros64(word))
			keys[out] = k
			out++
		}
	}
	Tally(keys[:out], rows, colBits)
	return out
}
