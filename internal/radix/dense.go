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
// slot (len(occ)·64 ≥ len(acc)); both are all-zero on entry and on return.
//
// Tuples are visited in arrival order, and a slot's first value is ASSIGNED,
// later ones added — the chain a two-pointer compress runs over a stably
// sorted bin, so the values are bit-identical to sort-then-compress (a bare
// += into the zeroed slot would turn an all −0.0 group into +0.0). drain then
// walks the bitmap in key order into the prefix of dk/dv, which may be
// keys/vals or start before them: every tuple is read before one is written.
// A key ≥ len(acc) is a bounds panic, never a wrap. Returns the folded count.
func FoldDense[V Numeric](keys []uint32, vals []V, dk []uint32, dv, acc []V, occ []uint64, rows []int64, colBits uint) int {
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
	return drain(occ, acc, dk, dv, rows, colBits)
}

// drain emits each set bit of occ, in key order, as a folded tuple into the
// prefix of dk/dv, clearing its bit and slot, and then the keys (emit).
func drain[V any](occ []uint64, acc []V, dk []uint32, dv []V, rows []int64, colBits uint) int {
	var zero V
	out := 0
	for wi, word := range occ {
		if word == 0 {
			continue
		}
		occ[wi] = 0
		base := uint32(wi) << 6
		for ; word != 0; word &= word - 1 {
			k := base | uint32(bits.TrailingZeros64(word))
			dk[out], dv[out] = k, acc[k]
			acc[k] = zero
			out++
		}
	}
	return emit(dk, dk[:out], rows, colBits)
}

// FoldDensePattern is FoldDense for the key-only pattern layout, whose fold
// is deduplication: the occupancy bitmap alone is the accumulator. occ must
// cover every key (len(occ)·64 > max key), all-zero on entry and on return.
// The keys go to the prefix of dk, as FoldDense's.
func FoldDensePattern(keys []uint32, occ []uint64, dk []uint32, rows []int64, colBits uint) int {
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
			dk[out] = base | uint32(bits.TrailingZeros64(word))
			out++
		}
	}
	return emit(dk, dk[:out], rows, colBits)
}

// FoldDenseBy is FoldDense for any value type and ⊕: a slot's first value is
// assigned and each later one folded in as plus(acc, v), in arrival order —
// SortFoldBy's chain, so the two agree bit for bit whatever plus is. acc's
// slots are left zero again, so it pins nothing between bins.
func FoldDenseBy[V any](keys []uint32, vals []V, dk []uint32, dv, acc []V, occ []uint64, rows []int64, colBits uint, plus func(a, b V) V) int {
	vals = vals[:len(keys)]
	for i, k := range keys {
		if w, b := k>>6, uint64(1)<<(k&63); occ[w]&b == 0 {
			occ[w] |= b
			acc[k] = vals[i]
		} else {
			acc[k] = plus(acc[k], vals[i])
		}
	}
	return drain(occ, acc, dk, dv, rows, colBits)
}
