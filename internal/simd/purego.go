//go:build purego

package simd

// purego build: the batched entry points degrade to the scalar references.
// No unsafe loads/stores and no assembly execute under this tag (prefetch
// hints become no-ops).

const level = "purego"

func OrPairs(ps []Pair) uint64 { return OrPairsScalar(ps) }

func HistPairs(ps []Pair, shift uint, count *[256]int64) {
	HistPairsScalar(ps, shift, count)
}

func ScatterPairs(src []Pair, dst []Pair, shift uint, cursor *[256]int64) {
	ScatterPairsScalar(src, dst, shift, cursor)
}

func AccumPairs(ps []Pair, acc *[256]float64) {
	AccumPairsScalar(ps, acc)
}

func ExpandKV[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	ExpandKVScalar(dstK, dstV, localRow, cols, bVals, av)
}

func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	ExpandKScalar(dstK, localRow, cols)
}

func ExpandPairs(dst []Pair, localRow uint64, cols []int32, bVals []float64, av float64) {
	ExpandPairsScalar(dst, localRow, cols, bVals, av)
}
