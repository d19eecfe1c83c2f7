package simd

// Scalar reference kernels. These are compiled into every build and are the
// correctness oracle for the batched forms: for identical inputs the batched
// kernel must produce bit-identical outputs.

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
