package simd

// Scalar reference kernels. These are compiled into every build and are the
// correctness oracle for the batched forms: for identical inputs the batched
// kernel must produce bit-identical outputs, including the order of
// floating-point additions (each accumulator is a single sequential chain in
// arrival order; no reassociation).
//
// Shared caller contract for the sort kernels: byte digits (Key>>shift)&0xff
// index count/cursor/acc tables of 256 entries; cursor values must be valid
// indices into dst for every element scattered.

// OrPairsScalar returns the bitwise OR of all pair keys.
func OrPairsScalar(ps []Pair) uint64 {
	var or uint64
	for i := range ps {
		or |= ps[i].Key
	}
	return or
}

// HistPairsScalar counts byte-digit occurrences of (Key>>shift)&0xff.
func HistPairsScalar(ps []Pair, shift uint, count *[256]int64) {
	for i := range ps {
		count[(ps[i].Key>>shift)&0xff]++
	}
}

// ScatterPairsScalar stably scatters 16-byte pairs by byte digit.
func ScatterPairsScalar(src []Pair, dst []Pair, shift uint, cursor *[256]int64) {
	for i := range src {
		b := (src[i].Key >> shift) & 0xff
		c := cursor[b]
		dst[c] = src[i]
		cursor[b] = c + 1
	}
}

// AccumPairsScalar is the pair-layout fold for the last byte digit.
func AccumPairsScalar(ps []Pair, acc *[256]float64) {
	for i := range ps {
		acc[ps[i].Key&0xff] += ps[i].Val
	}
}

// ExpandKVScalar computes one expand chunk: dstK[i] = localRow|cols[i],
// dstV[i] = av*bVals[i]. cols and bVals must be at least len(dstK) long.
func ExpandKVScalar[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	for i := range dstK {
		dstK[i] = localRow | uint32(cols[i])
		dstV[i] = av * bVals[i]
	}
}

// ExpandKScalar is the key-only (pattern) expand chunk.
func ExpandKScalar(dstK []uint32, localRow uint32, cols []int32) {
	for i := range dstK {
		dstK[i] = localRow | uint32(cols[i])
	}
}

// ExpandPairsScalar is the wide-layout expand chunk with a 64-bit packed key.
func ExpandPairsScalar(dst []Pair, localRow uint64, cols []int32, bVals []float64, av float64) {
	for i := range dst {
		dst[i] = Pair{Key: localRow | uint64(uint32(cols[i])), Val: av * bVals[i]}
	}
}
