//go:build purego

package simd

// purego build: the batched entry points degrade to the scalar references.
// No unsafe loads/stores and no assembly execute under this tag (prefetch
// hints become no-ops).

const level = "purego"

func ExpandKV[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	ExpandKVScalar(dstK, dstV, localRow, cols, bVals, av)
}

func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	ExpandKScalar(dstK, localRow, cols)
}
