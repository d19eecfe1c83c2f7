//go:build !purego

package radix

import (
	"unsafe"

	"pbspgemm/internal/simd"
)

// radix.Pair and simd.Pair are layout-identical; asserted at compile time
// so the unsafe.Slice pun below cannot silently drift.
var _ = [1]struct{}{}[unsafe.Sizeof(Pair{})-unsafe.Sizeof(simd.Pair{})]

func simdPairs(ps []Pair) []simd.Pair {
	if len(ps) == 0 {
		return nil
	}
	return unsafe.Slice((*simd.Pair)(unsafe.Pointer(&ps[0])), len(ps))
}

// The pair kernels of the default build: internal/simd's batched forms over
// the punned slice. Builds with the purego tag get scalar loops instead
// (pairskernel_purego.go).

func orPairs(ps []Pair) uint64 { return simd.OrPairs(simdPairs(ps)) }

func histPairs(ps []Pair, shift uint, count *[maxBuckets]int64) {
	simd.HistPairs(simdPairs(ps), shift, count)
}

func scatterPairs(src []Pair, dst []Pair, shift uint, cursor *[maxBuckets]int64) {
	simd.ScatterPairs(simdPairs(src), simdPairs(dst), shift, cursor)
}

func accumPairs(ps []Pair, acc *[maxBuckets]float64) {
	simd.AccumPairs(simdPairs(ps), acc)
}

// ExpandPairs writes the wide outer-product tuples
// {localRow|cols[i], av*bVals[i]} into dst (len(dst) = len(cols) = len(bVals)
// entries). The engine's expand phase calls it per chunk; exporting it here
// keeps the Pair↔simd.Pair pun inside this package.
func ExpandPairs(dst []Pair, localRow uint64, cols []int32, bVals []float64, av float64) {
	simd.ExpandPairs(simdPairs(dst), localRow, cols, bVals, av)
}
