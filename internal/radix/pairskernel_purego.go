//go:build purego

package radix

// purego: the pair kernels are the scalar loops, written here over []Pair so
// this package compiles without unsafe. They mirror internal/simd's ...Scalar
// twins, the oracle the batched forms of pairskernel_batch.go are held to.

func orPairs(ps []Pair) uint64 {
	var or uint64
	for i := range ps {
		or |= ps[i].Key
	}
	return or
}

func histPairs(ps []Pair, shift uint, count *[maxBuckets]int64) {
	for i := range ps {
		count[(ps[i].Key>>shift)&0xff]++
	}
}

func scatterPairs(src []Pair, dst []Pair, shift uint, cursor *[maxBuckets]int64) {
	for i := range src {
		b := (src[i].Key >> shift) & 0xff
		c := cursor[b]
		dst[c] = src[i]
		cursor[b] = c + 1
	}
}

func accumPairs(ps []Pair, acc *[maxBuckets]float64) {
	for i := range ps {
		acc[ps[i].Key&0xff] += ps[i].Val
	}
}

// ExpandPairs writes the wide outer-product tuples
// {localRow|cols[i], av*bVals[i]} into dst; see pairskernel_batch.go.
func ExpandPairs(dst []Pair, localRow uint64, cols []int32, bVals []float64, av float64) {
	for i := range dst {
		dst[i] = Pair{Key: localRow | uint64(cols[i]), Val: av * bVals[i]}
	}
}
