//go:build !purego

package simd

import "unsafe"

// Batched unsafe kernels. Each mirrors its ...Scalar twin exactly — same
// element order, same sequential fold chains — but works through raw
// pointers so the compiler emits no bounds checks in the inner loop, and
// unrolls the OR and counting passes 4 wide so four independent loads are in
// flight per iteration. The caller contract (digits ≤ 255, cursors in
// bounds) is inherited from scalar.go; these kernels do not re-check it.

// OrPairs is the batched OrPairsScalar.
func OrPairs(ps []Pair) uint64 {
	n := len(ps)
	if n == 0 {
		return 0
	}
	pp := unsafe.Pointer(&ps[0])
	var o0, o1, o2, o3 uint64
	i := 0
	for ; i+4 <= n; i += 4 {
		o0 |= (*Pair)(unsafe.Add(pp, uintptr(i)*16)).Key
		o1 |= (*Pair)(unsafe.Add(pp, uintptr(i+1)*16)).Key
		o2 |= (*Pair)(unsafe.Add(pp, uintptr(i+2)*16)).Key
		o3 |= (*Pair)(unsafe.Add(pp, uintptr(i+3)*16)).Key
	}
	or := o0 | o1 | o2 | o3
	for ; i < n; i++ {
		or |= ps[i].Key
	}
	return or
}

// HistPairs is the batched HistPairsScalar.
func HistPairs(ps []Pair, shift uint, count *[256]int64) {
	n := len(ps)
	if n == 0 {
		return
	}
	pp := unsafe.Pointer(&ps[0])
	cp := unsafe.Pointer(&count[0])
	i := 0
	for ; i+4 <= n; i += 4 {
		k0 := (*Pair)(unsafe.Add(pp, uintptr(i)*16)).Key
		k1 := (*Pair)(unsafe.Add(pp, uintptr(i+1)*16)).Key
		k2 := (*Pair)(unsafe.Add(pp, uintptr(i+2)*16)).Key
		k3 := (*Pair)(unsafe.Add(pp, uintptr(i+3)*16)).Key
		*(*int64)(unsafe.Add(cp, uintptr((k0>>shift)&0xff)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k1>>shift)&0xff)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k2>>shift)&0xff)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k3>>shift)&0xff)*8))++
	}
	for ; i < n; i++ {
		count[(ps[i].Key>>shift)&0xff]++
	}
}

// ScatterPairs is the batched ScatterPairsScalar.
func ScatterPairs(src []Pair, dst []Pair, shift uint, cursor *[256]int64) {
	n := len(src)
	if n == 0 {
		return
	}
	sp := unsafe.Pointer(&src[0])
	dp := unsafe.Pointer(&dst[0])
	cp := unsafe.Pointer(&cursor[0])
	for i := 0; i < n; i++ {
		p := (*Pair)(unsafe.Add(sp, uintptr(i)*16))
		cb := (*int64)(unsafe.Add(cp, uintptr((p.Key>>shift)&0xff)*8))
		c := uintptr(*cb)
		*(*Pair)(unsafe.Add(dp, c*16)) = *p
		*cb = int64(c + 1)
	}
}

// AccumPairs is the batched AccumPairsScalar.
func AccumPairs(ps []Pair, acc *[256]float64) {
	n := len(ps)
	if n == 0 {
		return
	}
	pp := unsafe.Pointer(&ps[0])
	ap := unsafe.Pointer(&acc[0])
	for i := 0; i < n; i++ {
		p := (*Pair)(unsafe.Add(pp, uintptr(i)*16))
		*(*float64)(unsafe.Add(ap, uintptr(p.Key&0xff)*8)) += p.Val
	}
}

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

// ExpandPairs is the batched ExpandPairsScalar.
func ExpandPairs(dst []Pair, localRow uint64, cols []int32, bVals []float64, av float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = cols[n-1]
	_ = bVals[n-1]
	dp := unsafe.Pointer(&dst[0])
	colp := unsafe.Pointer(&cols[0])
	bvp := unsafe.Pointer(&bVals[0])
	for i := 0; i < n; i++ {
		p := (*Pair)(unsafe.Add(dp, uintptr(i)*16))
		p.Key = localRow | uint64(uint32(*(*int32)(unsafe.Add(colp, uintptr(i)*4))))
		p.Val = av * *(*float64)(unsafe.Add(bvp, uintptr(i)*8))
	}
}
