//go:build purego

package simd

// purego build: the batched ExpandK degrades to its scalar reference
// (ExpandKV is plain safe Go in every build).
// No unsafe loads/stores and no assembly execute under this tag (prefetch
// hints become no-ops).

const level = "purego"

func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	ExpandKScalar(dstK, localRow, cols)
}
