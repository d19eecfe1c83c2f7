//go:build !purego

package simd

import "unsafe"

// Batched unsafe kernels. Each mirrors its ...Scalar twin exactly — same
// element order — but works through raw pointers so the compiler emits no
// bounds checks in the inner loop. The caller contract (cols and bVals at
// least as long as the destination) is inherited from scalar.go; beyond one
// up-front check these kernels do not re-check it.

// ExpandKV is the batched ExpandKVScalar.
func ExpandKV[V Value](dstK []uint32, dstV []V, localRow uint32, cols []int32, bVals []V, av V) {
	n := len(dstK)
	if n == 0 {
		return
	}
	_ = cols[n-1]
	_ = bVals[n-1]
	var zv V
	vsz := unsafe.Sizeof(zv)
	dkp := unsafe.Pointer(&dstK[0])
	dvp := unsafe.Pointer(&dstV[0])
	colp := unsafe.Pointer(&cols[0])
	bvp := unsafe.Pointer(&bVals[0])
	for i := 0; i < n; i++ {
		*(*uint32)(unsafe.Add(dkp, uintptr(i)*4)) = localRow | uint32(*(*int32)(unsafe.Add(colp, uintptr(i)*4)))
		*(*V)(unsafe.Add(dvp, uintptr(i)*vsz)) = av * *(*V)(unsafe.Add(bvp, uintptr(i)*vsz))
	}
}

// ExpandK is the batched ExpandKScalar.
func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	n := len(dstK)
	if n == 0 {
		return
	}
	_ = cols[n-1]
	dkp := unsafe.Pointer(&dstK[0])
	colp := unsafe.Pointer(&cols[0])
	for i := 0; i < n; i++ {
		*(*uint32)(unsafe.Add(dkp, uintptr(i)*4)) = localRow | uint32(*(*int32)(unsafe.Add(colp, uintptr(i)*4)))
	}
}
