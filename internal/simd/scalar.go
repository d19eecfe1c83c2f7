package simd

// Scalar reference kernels. These are compiled into every build and are the
// correctness oracle for the batched forms: for identical inputs the batched
// kernel must produce bit-identical outputs. ExpandKV, the one batched kernel
// that needs no unsafe code, sits here beside its reference.

// ExpandKVScalar computes one expand chunk: dstK[i] = localRow|cols[i],
// dstV[i] = av*bVals[i]. cols and bVals must be at least len(dstK) long.
func ExpandKVScalar[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	for i := range dstK {
		dstK[i] = localRow | uint32(cols[i])
		dstV[i] = av * bVals[i]
	}
}

// ExpandKV is the batched ExpandKVScalar, the same in every build: it needs
// no raw pointers. Reslicing every plane to the destination's length once up
// front (capped at each plane's length, so a short plane panics there and is
// never read past its end) lets the compiler drop the loop's bounds checks,
// and keeps the function small enough to inline into its instantiations, so
// internal/core's value layout, which binds ExpandKV[V] as a function value,
// calls the loop itself and not a wrapper around it.
func ExpandKV[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	n := len(dstK)
	dstV, cols, bVals = dstV[:n:len(dstV)], cols[:n:len(cols)], bVals[:n:len(bVals)]
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
