//go:build !purego

package simd

import "unsafe"

// Batched unsafe kernels. Each mirrors its ...Scalar twin exactly — same
// element order — but works through raw pointers so the compiler emits no
// bounds checks in the inner loop. The caller contract (cols at least as long
// as the destination) is inherited from scalar.go; beyond one up-front check
// these kernels do not re-check it. ExpandKV needs no raw pointers and lives
// in scalar.go, built under every tag.

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
