package simd

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

func genKV(n int, keyBits uint, seed uint64) ([]uint32, []float64) {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	keys := make([]uint32, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = r.Uint32() & (1<<keyBits - 1)
		vals[i] = r.Float64()*200 - 100
	}
	return keys, vals
}

// TestBatchedMatchesScalarKernels pins bit-identity of every batched kernel
// against its scalar twin, across sizes from empty to many chunks.
func TestBatchedMatchesScalarKernels(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 9, 63, 64, 65, 1000} {
		keys, vals := genKV(n, 23, uint64(n)+1)
		cols := make([]int32, n)
		for i := range cols {
			cols[i] = int32(keys[i] & 0x3ff)
		}
		const localRow = uint32(0x1234) << 10
		ek1, ev1 := make([]uint32, n), make([]float64, n)
		ek2, ev2 := make([]uint32, n), make([]float64, n)
		ExpandKV(ek1, ev1, localRow, cols, vals, 3.25)
		ExpandKVScalar(ek2, ev2, localRow, cols, vals, 3.25)
		for i := range ek1 {
			if ek1[i] != ek2[i] || ev1[i] != ev2[i] {
				t.Fatalf("n=%d ExpandKV[%d] mismatch", n, i)
			}
		}
		ExpandK(ek1, localRow, cols)
		ExpandKScalar(ek2, localRow, cols)
		for i := range ek1 {
			if ek1[i] != ek2[i] {
				t.Fatalf("n=%d ExpandK[%d] mismatch", n, i)
			}
		}
	}
}

// TestBatchedMatchesScalarNarrow covers the expand kernel's 4-byte value
// instantiations (the narrow layout).
func TestBatchedMatchesScalarNarrow(t *testing.T) {
	const n = 777
	keys, f64s := genKV(n, 10, 9)
	cols := make([]int32, n)
	vals := make([]float32, n)
	ints := make([]int32, n)
	for i := range vals {
		cols[i] = int32(keys[i])
		vals[i] = float32(f64s[i])
		ints[i] = int32(i * 3)
	}
	k1, k2 := make([]uint32, n), make([]uint32, n)
	f1, f2 := make([]float32, n), make([]float32, n)
	ExpandKV(k1, f1, 5<<10, cols, vals, 1.5)
	ExpandKVScalar(k2, f2, 5<<10, cols, vals, 1.5)
	i1, i2 := make([]int32, n), make([]int32, n)
	ExpandKV(k1, i1, 5<<10, cols, ints, 7)
	ExpandKVScalar(k2, i2, 5<<10, cols, ints, 7)
	for i := range k1 {
		if k1[i] != k2[i] || f1[i] != f2[i] || i1[i] != i2[i] {
			t.Fatalf("ExpandKV narrow [%d] mismatch", i)
		}
	}
}

func TestPrefetchSafe(t *testing.T) {
	buf := make([]byte, 4096)
	PrefetchRangeT0(unsafe.Pointer(&buf[0]), len(buf))
	PrefetchRangeT0(unsafe.Pointer(&buf[0]), 0)
	PrefetchSlice(buf)
	PrefetchSlice([]float64(nil))
}

func TestLevel(t *testing.T) {
	switch lv := Level(); lv {
	case "batched", "batched+goamd64v3":
	case "purego":
		if HasNT {
			t.Fatal("purego build reports non-temporal stores")
		}
	default:
		t.Fatalf("unknown level %q", lv)
	}
}
