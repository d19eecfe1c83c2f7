package radix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSortFold is the oracle, independent of both kernels: a stdlib stable
// sort by key, then (with fold) one left-to-right fold of equal neighbours.
func refSortFold[V Numeric](keys []uint32, vals []V, fold bool) ([]uint32, []V) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var outK []uint32
	var outV []V
	for _, i := range idx {
		if fold && len(outK) > 0 && outK[len(outK)-1] == keys[i] {
			outV[len(outV)-1] += vals[i]
			continue
		}
		outK, outV = append(outK, keys[i]), append(outV, vals[i])
	}
	return outK, outV
}

// valBits exposes a value's bit pattern, so −0.0 ≠ +0.0; every NaN maps to
// one pattern (which operand's payload x+y keeps is the instruction's choice,
// not the fold order's).
func valBits[V Numeric](v V) uint64 {
	if v != v {
		return math.MaxUint64
	}
	switch x := any(v).(type) {
	case float64:
		return math.Float64bits(x)
	case float32:
		return uint64(math.Float32bits(x))
	case int32:
		return uint64(uint32(x))
	}
	panic("unreachable")
}

// shape is one adversarial key distribution: n tuples of keyBits-bit keys.
type shape struct {
	name       string
	n, keyBits int
	key        func(r *rand.Rand, i int) uint32
}

func uniform(keyBits int) func(*rand.Rand, int) uint32 {
	return func(r *rand.Rand, _ int) uint32 { return uint32(r.Uint64() & (1<<keyBits - 1)) }
}

func shapes() []shape {
	var ss []shape
	for _, n := range []int{0, 1, 2, 31, 32, 33} {
		ss = append(ss, shape{fmt.Sprintf("n%d", n), n, 12, uniform(12)})
	}
	return append(ss,
		shape{"all-equal", 500, 17, func(*rand.Rand, int) uint32 { return 0x1abcd }},
		shape{"all-zero", 40, 9, func(*rand.Rand, int) uint32 { return 0 }},
		shape{"hot-key", 3000, 16, func(r *rand.Rand, i int) uint32 {
			if r.Intn(2) == 0 {
				return 777
			}
			return uint32(i) // distinct
		}},
		shape{"exactly-32-bits", 5000, 32, func(r *rand.Rand, _ int) uint32 { return r.Uint32() | 1<<31 }},
		shape{"32-bit-dups", 5000, 32, func(r *rand.Rand, _ int) uint32 { return 0xfffffff0 | uint32(r.Intn(16)) }},
		shape{"keybits-1", 300, 1, uniform(1)},
		shape{"middle-digit-uniform", 4000, 27, func(r *rand.Rand, _ int) uint32 {
			return uint32(r.Intn(512))<<18 | 5<<9 | uint32(r.Intn(512))
		}},
		// 4·n slots is the dense rule's edge: one key space a notch under
		// it, one a notch over.
		shape{"density-below", 1<<14 + 1, 16, uniform(16)},
		shape{"density-above", 1<<14 - 1, 16, uniform(16)},
		shape{"index-past-2^16", 70000, 20, uniform(20)},
		shape{"index-past-2^16-dups", 70000, 10, uniform(10)},
	)
}

// checkKV runs one kernel result against the oracle, bit for bit, together
// with its row tally.
func checkKV[V Numeric](t *testing.T, what string, gotK []uint32, gotV []V, rows []int64, wantK []uint32, wantV []V, fold bool, colBits uint) {
	t.Helper()
	if len(gotK) != len(wantK) {
		t.Fatalf("%s: %d tuples, want %d", what, len(gotK), len(wantK))
	}
	wantRows := make([]int64, len(rows))
	for i := range wantK {
		if gotK[i] != wantK[i] || valBits(gotV[i]) != valBits(wantV[i]) {
			t.Fatalf("%s: tuple %d = (%#x, %v), want (%#x, %v)", what, i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
		if fold {
			wantRows[wantK[i]>>colBits]++
		}
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Fatalf("%s: rows[%d] = %d, want %d", what, i, rows[i], wantRows[i])
		}
	}
}

func allZero[T comparable](s []T) bool {
	var z T
	for _, x := range s {
		if x != z {
			return false
		}
	}
	return true
}

// denseTestBits caps the key widths the dense kernel is run at (its
// accumulator is 1<<keyBits slots).
const denseTestBits = 20

func testKernelsKV[V Numeric](t *testing.T, val func(r *rand.Rand) V) {
	r := rand.New(rand.NewSource(16))
	for _, s := range shapes() {
		keys := make([]uint32, s.n)
		vals := make([]V, s.n)
		for i := range keys {
			keys[i], vals[i] = s.key(r, i), val(r)
		}
		colBits := uint(max(s.keyBits-3, 0))
		nrows := 1 << (uint(s.keyBits) - colBits)
		w0, w1, tmp := make([]uint64, s.n), make([]uint64, s.n), make([]V, s.n)
		for _, fold := range []bool{true, false} {
			wantK, wantV := refSortFold(keys, vals, fold)
			k, v := append([]uint32(nil), keys...), append([]V(nil), vals...)
			rows := make([]int64, nrows)
			n := SortFold(k, v, w0, w1, tmp, s.keyBits, fold, rows, colBits)
			checkKV(t, fmt.Sprintf("%s SortFold(fold=%v)", s.name, fold), k[:n], v[:n], rows, wantK, wantV, fold, colBits)
			// rows == nil must skip the tally, not crash.
			k, v = append(k[:0], keys...), append(v[:0], vals...)
			if m := SortFold(k, v, w0, w1, tmp, s.keyBits, fold, nil, colBits); m != n {
				t.Fatalf("%s: nil rows changed the count: %d vs %d", s.name, m, n)
			}
		}
		if s.keyBits > denseTestBits {
			continue
		}
		wantK, wantV := refSortFold(keys, vals, true)
		acc, occ := make([]V, 1<<s.keyBits), make([]uint64, (1<<s.keyBits+63)/64)
		k, v := append([]uint32(nil), keys...), append([]V(nil), vals...)
		rows := make([]int64, nrows)
		n := FoldDense(k, v, acc, occ, rows, colBits)
		checkKV(t, s.name+" FoldDense", k[:n], v[:n], rows, wantK, wantV, true, colBits)
		if !allZero(acc) || !allZero(occ) {
			t.Fatalf("%s: FoldDense left its accumulator or bitmap dirty", s.name)
		}
	}
}

// TestKernelsMatchOracle checks both kernels, fold and sort-only, for the
// three value shapes against refSortFold on the adversarial shapes. Values
// are drawn to make the fold order visible: floats of mixed magnitude
// (addition is not associative), int32s that wrap.
func TestKernelsMatchOracle(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		testKernelsKV(t, func(r *rand.Rand) float64 { return r.NormFloat64() * math.Pow(10, float64(r.Intn(30)-15)) })
	})
	t.Run("float32", func(t *testing.T) {
		testKernelsKV(t, func(r *rand.Rand) float32 { return float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(12)-6))) })
	})
	t.Run("int32-wraps", func(t *testing.T) {
		testKernelsKV(t, func(r *rand.Rand) int32 { return math.MaxInt32 - int32(r.Intn(3)) })
	})
	t.Run("special-values", func(t *testing.T) {
		specials := []float64{math.Copysign(0, -1), math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1}
		testKernelsKV(t, func(r *rand.Rand) float64 { return specials[r.Intn(len(specials))] })
	})
	t.Run("pattern", func(t *testing.T) {
		r := rand.New(rand.NewSource(17))
		for _, s := range shapes() {
			keys := make([]uint32, s.n)
			for i := range keys {
				keys[i] = s.key(r, i)
			}
			colBits := uint(max(s.keyBits-3, 0))
			nrows := 1 << (uint(s.keyBits) - colBits)
			unit := make([]int32, s.n) // the oracle's value plane; never compared
			aux := make([]uint32, s.n)
			for _, fold := range []bool{true, false} {
				wantK, _ := refSortFold(keys, unit, fold)
				k := append([]uint32(nil), keys...)
				rows := make([]int64, nrows)
				n := SortFoldPattern(k, aux, s.keyBits, fold, rows, colBits)
				checkKV(t, fmt.Sprintf("%s SortFoldPattern(fold=%v)", s.name, fold), k[:n], unit[:n], rows, wantK, unit[:len(wantK)], fold, colBits)
			}
			if s.keyBits > denseTestBits {
				continue
			}
			wantK, _ := refSortFold(keys, unit, true)
			occ := make([]uint64, (1<<s.keyBits+63)/64)
			k := append([]uint32(nil), keys...)
			rows := make([]int64, nrows)
			n := FoldDensePattern(k, occ, rows, colBits)
			checkKV(t, s.name+" FoldDensePattern", k[:n], unit[:n], rows, wantK, unit[:len(wantK)], true, colBits)
			if !allZero(occ) {
				t.Fatalf("%s: FoldDensePattern left its bitmap dirty", s.name)
			}
		}
	})
}

// TestNegativeZeroGroupKeepsSign pins the first-touch-assigns rule on its
// smallest case: a group of −0.0 values folds to −0.0 in both kernels.
func TestNegativeZeroGroupKeepsSign(t *testing.T) {
	nz := math.Copysign(0, -1)
	keys, vals := []uint32{3, 3, 3}, []float64{nz, nz, nz}
	if n := SortFold(keys, vals, make([]uint64, 3), make([]uint64, 3), make([]float64, 3), 2, true, nil, 0); n != 1 || !math.Signbit(vals[0]) {
		t.Fatalf("SortFold folded −0.0 group to %v (n=%d)", vals[0], n)
	}
	keys, vals = []uint32{3, 1, 3}, []float64{nz, 1, nz}
	if n := FoldDense(keys, vals, make([]float64, 4), make([]uint64, 1), nil, 0); n != 2 || !math.Signbit(vals[1]) {
		t.Fatalf("FoldDense folded −0.0 group to %v (n=%d)", vals[1], n)
	}
}

func mustPanic(t *testing.T, what string, f func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
	return nil
}

// TestPreconditionsAreChecked: a key wider than keyBits and a segment longer
// than a 32-bit index can number are refused, never wrapped.
func TestPreconditionsAreChecked(t *testing.T) {
	keys, vals := []uint32{1, 2, 1 << 10}, []float64{1, 2, 3}
	w0, w1, tmp := make([]uint64, 16), make([]uint64, 16), make([]float64, 16)
	mustPanic(t, "SortFold with a key ≥ 2^keyBits", func() { SortFold(keys, vals, w0, w1, tmp, 10, true, nil, 0) })
	mustPanic(t, "SortFoldPattern with a key ≥ 2^keyBits", func() { SortFoldPattern(keys, make([]uint32, 3), 10, true, nil, 0) })
	mustPanic(t, "FoldDense with a key ≥ len(acc)", func() { FoldDense(keys, vals, make([]float64, 1<<10), make([]uint64, 1<<4), nil, 0) })
	mustPanic(t, "FoldDensePattern with a key past occ", func() { FoldDensePattern(keys, make([]uint64, 1<<4), nil, 0) })

	defer func(old uint64) { maxSegment = old }(maxSegment)
	maxSegment = 8
	if err := CheckSegment(8); err != nil {
		t.Fatalf("CheckSegment(8) at limit 8: %v", err)
	}
	if err := CheckSegment(9); !errors.Is(err, ErrSegmentTooLarge) {
		t.Fatalf("CheckSegment(9) at limit 8: %v, want ErrSegmentTooLarge", err)
	}
	long := make([]uint32, 9)
	v := mustPanic(t, "SortFold past maxSegment", func() { SortFold(long, make([]float64, 9), w0, w1, tmp, 10, true, nil, 0) })
	if err, ok := v.(error); !ok || !errors.Is(err, ErrSegmentTooLarge) {
		t.Fatalf("SortFold past maxSegment panicked with %v, want ErrSegmentTooLarge", v)
	}
}

// TestPartitionThenSortMatchesOracle: the oversized-bin path — one
// PartitionTop pass, each bucket sorted with SortFold in sort-only mode on
// the remaining bits — is the stable sort of the whole segment.
func TestPartitionThenSortMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, keyBits := range []int{3, 8, 18, 32} {
		n := 50000
		keys, vals := make([]uint32, n), make([]float64, n)
		for i := range keys {
			keys[i], vals[i] = uint32(r.Uint64()&(1<<keyBits-1)), r.NormFloat64()
		}
		wantK, wantV := refSortFold(keys, vals, false)
		pk := append([]uint32(nil), keys...)

		bounds := make([]int64, MaxPartitionBuckets+1)
		auxK, auxV := make([]uint32, n), make([]float64, n)
		w0, w1 := make([]uint64, n), make([]uint64, n)
		nb, rest := PartitionTop(keys, vals, auxK, auxV, bounds)
		for b := 0; b < nb; b++ {
			lo, hi := bounds[b], bounds[b+1]
			SortFold(keys[lo:hi], vals[lo:hi], w0, w1, auxV, rest, false, nil, 0)
		}
		checkKV(t, fmt.Sprintf("keyBits=%d PartitionTop", keyBits), keys, vals, nil, wantK, wantV, false, 0)

		none := make([]struct{}, n)
		nb, rest = PartitionTop(pk, none, auxK, none, bounds)
		for b := 0; b < nb; b++ {
			SortFoldPattern(pk[bounds[b]:bounds[b+1]], auxK, rest, false, nil, 0)
		}
		for i := range pk {
			if pk[i] != wantK[i] {
				t.Fatalf("keyBits=%d PartitionTop (key-only): key %d = %#x, want %#x", keyBits, i, pk[i], wantK[i])
			}
		}
	}
	bounds := make([]int64, MaxPartitionBuckets+1)
	if nb, _ := PartitionTop([]uint32{7, 7, 7}, []float64{1, 2, 3}, make([]uint32, 3), make([]float64, 3), bounds); nb != 0 {
		t.Fatal("all-equal keys: want 0 buckets")
	}
}

// TestWideStableFamilyMatchesOracle covers the wide layout's sorts the same
// way: stable sort, fused sort+fold, and partition + per-bucket sort, over the
// build's pair kernels (batched by default, the scalar loops under purego).
func TestWideStableFamilyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 1000, 20000} {
		for _, kr := range []uint64{1, 2, 7, 1 << 10, 1 << 22, 1 << 40} {
			ps := make([]Pair, n)
			for i := range ps {
				ps[i] = Pair{Key: r.Uint64() % kr, Val: r.NormFloat64()}
				if ps[i].Key%3 == 0 {
					ps[i].Val = math.Copysign(0, -1) // whole groups of −0: the fold must keep the sign
				}
			}
			sorted := append([]Pair(nil), ps...)
			sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Key < sorted[b].Key })
			var folded []Pair
			for _, p := range sorted {
				if len(folded) > 0 && folded[len(folded)-1].Key == p.Key {
					folded[len(folded)-1].Val += p.Val
					continue
				}
				folded = append(folded, p)
			}
			aux := make([]Pair, n)
			got := append([]Pair(nil), ps...)
			SortPairsStable(got, aux)
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("n=%d kr=%d: SortPairsStable[%d] = %+v, want %+v", n, kr, i, got[i], sorted[i])
				}
			}
			got = append(got[:0], ps...)
			m := SortPairsFusedScratch(got, aux)
			if int(m) != len(folded) {
				t.Fatalf("n=%d kr=%d: fused len %d, want %d", n, kr, m, len(folded))
			}
			for i := range folded {
				if got[i].Key != folded[i].Key || math.Float64bits(got[i].Val) != math.Float64bits(folded[i].Val) {
					t.Fatalf("n=%d kr=%d: fused[%d] = %+v, want %+v", n, kr, i, got[i], folded[i])
				}
			}
			got = append(got[:0], ps...)
			bounds := make([]int64, MaxPartitionBuckets+1)
			nb, next := PartitionPairsScratch(got, aux, bounds)
			for b := 0; b < nb; b++ {
				SortPairsAtByteStable(got[bounds[b]:bounds[b+1]], aux, next)
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("n=%d kr=%d: partitioned[%d] = %+v, want %+v", n, kr, i, got[i], sorted[i])
				}
			}
		}
	}
}

// TestKernelsDoNotAllocate: with scratch provided, neither kernel touches
// the heap (their histograms live on the stack).
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	const n, keyBits = 4096, 14
	keys, vals := make([]uint32, n), make([]float64, n)
	for i := range keys {
		keys[i], vals[i] = uint32(r.Intn(1<<keyBits)), r.Float64()
	}
	k, v := make([]uint32, n), make([]float64, n)
	w0, w1, tmp, aux := make([]uint64, n), make([]uint64, n), make([]float64, n), make([]uint32, n)
	acc, occ := make([]float64, 1<<keyBits), make([]uint64, 1<<keyBits/64)
	rows := make([]int64, 1<<4)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(k, keys)
		copy(v, vals)
		SortFold(k, v, w0, w1, tmp, keyBits, true, rows, 10)
		copy(k, keys)
		FoldDense(k, v, acc, occ, rows, 10)
		copy(k, keys)
		SortFoldPattern(k, aux, keyBits, true, rows, 10)
		copy(k, keys)
		FoldDensePattern(k, occ, rows, 10)
	}); allocs != 0 {
		t.Fatalf("kernels allocated %.1f times per round, want 0", allocs)
	}
}

func TestGrowUint32(t *testing.T) {
	var buf []uint32
	s := GrowUint32(&buf, 100)
	if len(s) != 100 {
		t.Fatalf("len %d", len(s))
	}
	p := &s[0]
	s2 := GrowUint32(&buf, 50)
	if len(s2) != 50 || &s2[0] != p {
		t.Fatal("shrink reallocated")
	}
	if s3 := GrowUint32(&buf, 200); len(s3) != 200 {
		t.Fatal("grow failed")
	}
}

// BenchmarkKernels times both kernels on one L2-sized bin of 64 Ki tuples:
// the LSD at er_lowcf's 26-bit keys and at rmat_skew's 18, the dense fold at
// 18 (its key space is 4 slots per tuple there).
func BenchmarkKernels(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(1))
	for _, keyBits := range []int{26, 18} {
		keys, vals := make([]uint32, n), make([]float64, n)
		for i := range keys {
			keys[i], vals[i] = uint32(r.Uint64()&(1<<keyBits-1)), r.Float64()
		}
		k, v := make([]uint32, n), make([]float64, n)
		w0, w1, tmp, aux := make([]uint64, n), make([]uint64, n), make([]float64, n), make([]uint32, n)
		b.Run(fmt.Sprintf("SortFold/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(v, vals)
				SortFold(k, v, w0, w1, tmp, keyBits, true, nil, 0)
			}
		})
		b.Run(fmt.Sprintf("SortFoldPattern/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				SortFoldPattern(k, aux, keyBits, true, nil, 0)
			}
		})
		if keyBits > denseTestBits {
			continue
		}
		acc, occ := make([]float64, 1<<keyBits), make([]uint64, 1<<keyBits/64)
		b.Run(fmt.Sprintf("FoldDense/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(v, vals)
				FoldDense(k, v, acc, occ, nil, 0)
			}
		})
		b.Run(fmt.Sprintf("FoldDensePattern/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				FoldDensePattern(k, occ, nil, 0)
			}
		})
	}
}
