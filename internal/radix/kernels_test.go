package radix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSortFold is the oracle, independent of both kernels: a stdlib stable
// sort by key, then one left-to-right fold of equal neighbours.
func refSortFold[V Numeric](keys []uint32, vals []V) ([]uint32, []V) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var outK []uint32
	var outV []V
	for _, i := range idx {
		if len(outK) > 0 && outK[len(outK)-1] == keys[i] {
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
		// Short segments (insertion sort): all equal, and 32-bit keys with dups.
		shape{"short-all-equal", 20, 17, func(*rand.Rand, int) uint32 { return 0x1abcd }},
		shape{"short-32-bit-dups", 32, 32, func(r *rand.Rand, _ int) uint32 { return 0xfffffff0 | uint32(r.Intn(4)) }},
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
func checkKV[V Numeric](t *testing.T, what string, gotK []uint32, gotV []V, rows []int64, wantK []uint32, wantV []V, colBits uint) {
	t.Helper()
	if len(gotK) != len(wantK) {
		t.Fatalf("%s: %d tuples, want %d", what, len(gotK), len(wantK))
	}
	wantRows := make([]int64, len(rows))
	for i := range wantK {
		if gotK[i] != wantK[i] || valBits(gotV[i]) != valBits(wantV[i]) {
			t.Fatalf("%s: tuple %d = (%#x, %v), want (%#x, %v)", what, i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
		wantRows[wantK[i]>>colBits]++
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
		wantK, wantV := refSortFold(keys, vals)
		k, v := append([]uint32(nil), keys...), append([]V(nil), vals...)
		rows := make([]int64, nrows)
		n := SortFold(k, v, w0, w1, tmp, s.keyBits, rows, colBits)
		checkKV(t, s.name+" SortFold", k[:n], v[:n], rows, wantK, wantV, colBits)
		// rows == nil must skip the tally, not crash.
		k, v = append(k[:0], keys...), append(v[:0], vals...)
		if m := SortFold(k, v, w0, w1, tmp, s.keyBits, nil, colBits); m != n {
			t.Fatalf("%s: nil rows changed the count: %d vs %d", s.name, m, n)
		}
		if s.keyBits > denseTestBits {
			continue
		}
		acc, occ := make([]V, 1<<s.keyBits), make([]uint64, (1<<s.keyBits+63)/64)
		k, v = append(k[:0], keys...), append(v[:0], vals...)
		rows = make([]int64, nrows)
		n = FoldDense(k, v, acc, occ, rows, colBits)
		checkKV(t, s.name+" FoldDense", k[:n], v[:n], rows, wantK, wantV, colBits)
		if !allZero(acc) || !allZero(occ) {
			t.Fatalf("%s: FoldDense left its accumulator or bitmap dirty", s.name)
		}
	}
}

// TestKernelsMatchOracle checks both kernels for the three value shapes against refSortFold on the adversarial shapes. Values
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
			wantK, _ := refSortFold(keys, unit)
			k := append([]uint32(nil), keys...)
			rows := make([]int64, nrows)
			n := SortFoldPattern(k, aux, s.keyBits, rows, colBits)
			checkKV(t, s.name+" SortFoldPattern", k[:n], unit[:n], rows, wantK, unit[:len(wantK)], colBits)
			if s.keyBits > denseTestBits {
				continue
			}
			occ := make([]uint64, (1<<s.keyBits+63)/64)
			k = append(k[:0], keys...)
			rows = make([]int64, nrows)
			n = FoldDensePattern(k, occ, rows, colBits)
			checkKV(t, s.name+" FoldDensePattern", k[:n], unit[:n], rows, wantK, unit[:len(wantK)], colBits)
			if !allZero(occ) {
				t.Fatalf("%s: FoldDensePattern left its bitmap dirty", s.name)
			}
		}
	})
	// The kernels through a caller's ⊕ on (key, value) pairs, over an 8-byte
	// value and over one that is not: 20 bytes, 24 a pair with its key.
	t.Run("pairs-float64", func(t *testing.T) {
		nz := math.Copysign(0, -1)
		testBy(t, func(r *rand.Rand, key uint32) float64 {
			if key%3 == 0 {
				return nz // whole groups of −0: the fold must keep the sign
			}
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(30)-15))
		}, func(a, b float64) float64 { return a + b },
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	})
	t.Run("pairs-24-byte-element", func(t *testing.T) {
		testBy(t, func(r *rand.Rand, _ uint32) [5]float32 {
			return [5]float32{r.Float32(), float32(r.NormFloat64()), 1, -r.Float32(), float32(r.Intn(8))}
		}, func(a, b [5]float32) [5]float32 {
			return [5]float32{a[0] + b[0], max(a[1], b[1]), a[2] + b[2], min(a[3], b[3]), a[4]*0.5 + b[4]}
		}, func(a, b [5]float32) bool { return a == b })
	})
}

// testBy holds SortFoldBy and, where the key space allows one, FoldDenseBy's
// direct-address accumulator (left all-zero) to a stdlib stable sort and a
// left-to-right fold through plus (same compares values bit for bit): key
// widths from 1 to 32 bits, empty, one-tuple and all-equal segments, segments
// past 2^16, and their row tallies.
func testBy[V any](t *testing.T, val func(r *rand.Rand, key uint32) V, plus func(a, b V) V, same func(a, b V) bool) {
	r := rand.New(rand.NewSource(19))
	for _, keyBits := range []int{1, 12, 20, 32} {
		for _, n := range []int{0, 1, 2, 33, 1000, 70000} {
			for _, kr := range []uint64{1, 7, 1 << min(keyBits, 10), 1 << keyBits} {
				kr = min(kr, 1<<keyBits)
				top := uint64(1)<<keyBits - kr // keys sit at the top of the key space
				keys, vals := make([]uint32, n), make([]V, n)
				for i := range keys {
					keys[i] = uint32(top + r.Uint64()%kr)
					vals[i] = val(r, keys[i])
				}
				what := fmt.Sprintf("keyBits=%d n=%d range=%d", keyBits, n, kr)
				idx := make([]int, n)
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
				var wantK []uint32
				var wantV []V
				for _, i := range idx {
					if m := len(wantK); m > 0 && wantK[m-1] == keys[i] {
						wantV[m-1] = plus(wantV[m-1], vals[i])
						continue
					}
					wantK, wantV = append(wantK, keys[i]), append(wantV, vals[i])
				}
				colBits := uint(max(keyBits-3, 0))
				check := func(route string, gotK []uint32, gotV []V, rows []int64) {
					t.Helper()
					if len(gotK) != len(wantK) {
						t.Fatalf("%s: %s left %d tuples, want %d", what, route, len(gotK), len(wantK))
					}
					wantRows := make([]int64, len(rows))
					for i := range wantK {
						if gotK[i] != wantK[i] || !same(gotV[i], wantV[i]) {
							t.Fatalf("%s: %s[%d] = (%#x, %v), want (%#x, %v)", what, route, i, gotK[i], gotV[i], wantK[i], wantV[i])
						}
						wantRows[wantK[i]>>colBits]++
					}
					if !slices.Equal(rows, wantRows) {
						t.Fatalf("%s: %s tallied rows %v, want %v", what, route, rows, wantRows)
					}
				}
				k, v := slices.Clone(keys), slices.Clone(vals)
				rows := make([]int64, 1<<(uint(keyBits)-colBits))
				m := SortFoldBy(k, v, make([]uint64, n), make([]uint64, n), make([]V, n), keyBits, rows, colBits, plus)
				check("SortFoldBy", k[:m], v[:m], rows)

				if keyBits > denseTestBits {
					continue // no direct-address accumulator for a key space this wide
				}
				acc, occ := make([]V, 1<<keyBits), make([]uint64, (1<<keyBits+63)/64)
				k, v = slices.Clone(keys), slices.Clone(vals)
				clear(rows)
				m = FoldDenseBy(k, v, acc, occ, rows, colBits, plus)
				check("FoldDenseBy", k[:m], v[:m], rows)
				var zero V
				for i := range acc {
					if !same(acc[i], zero) || occ[i/64] != 0 {
						t.Fatalf("%s: FoldDenseBy left slot %d dirty", what, i)
					}
				}
			}
		}
	}
}

// TestNegativeZeroGroupKeepsSign pins the first-touch-assigns rule on its
// smallest case: a group of −0.0 values folds to −0.0 in both kernels.
func TestNegativeZeroGroupKeepsSign(t *testing.T) {
	nz := math.Copysign(0, -1)
	keys, vals := []uint32{3, 3, 3}, []float64{nz, nz, nz}
	if n := SortFold(keys, vals, make([]uint64, 3), make([]uint64, 3), make([]float64, 3), 2, nil, 0); n != 1 || !math.Signbit(vals[0]) {
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
	mustPanic(t, "SortFold with a key ≥ 2^keyBits", func() { SortFold(keys, vals, w0, w1, tmp, 10, nil, 0) })
	mustPanic(t, "SortFoldPattern with a key ≥ 2^keyBits", func() { SortFoldPattern(keys, make([]uint32, 3), 10, nil, 0) })
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
	v := mustPanic(t, "SortFold past maxSegment", func() { SortFold(long, make([]float64, 9), w0, w1, tmp, 10, nil, 0) })
	if err, ok := v.(error); !ok || !errors.Is(err, ErrSegmentTooLarge) {
		t.Fatalf("SortFold past maxSegment panicked with %v, want ErrSegmentTooLarge", v)
	}
}

// TestKernelsDoNotAllocate: with scratch provided, no kernel touches the heap
// (their histograms live on the stack).
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
	plus := func(a, b float64) float64 { return a + b }
	if allocs := testing.AllocsPerRun(10, func() {
		copy(k, keys)
		copy(v, vals)
		SortFoldBy(k, v, w0, w1, tmp, keyBits, rows, 10, plus)
		copy(k, keys)
		FoldDenseBy(k, v, acc, occ, rows, 10, plus)
		copy(k, keys)
		copy(v, vals)
		SortFold(k, v, w0, w1, tmp, keyBits, rows, 10)
		copy(k, keys)
		FoldDense(k, v, acc, occ, rows, 10)
		copy(k, keys)
		SortFoldPattern(k, aux, keyBits, rows, 10)
		copy(k, keys)
		FoldDensePattern(k, occ, rows, 10)
	}); allocs != 0 {
		t.Fatalf("kernels allocated %.1f times per round, want 0", allocs)
	}
}

// TestStartsAnyTableCount: starts converts one to four tables (the plan hands
// it an odd count as often as an even one) into exclusive prefix sums, and
// touches no table past the slice it is given.
func TestStartsAnyTableCount(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 1; n <= maxPasses; n++ {
		var hs, want [maxPasses + 1][1 << maxDigitBits]uint32
		for i := range hs {
			for d := range hs[i] {
				hs[i][d] = uint32(r.Intn(100))
			}
		}
		want = hs
		for i := range n {
			var sum uint32
			for d := range 1 << 9 {
				want[i][d], sum = sum, sum+want[i][d]
			}
		}
		starts(hs[:n], 9)
		if hs != want {
			t.Fatalf("%d tables: offsets differ from a prefix sum per table", n)
		}
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

// BenchmarkSortFoldHypersparse times SortFold on er_lowcf's bins (ER 2^16·d8),
// in ns per tuple, at both geometries the engine has given them: 64 Ki tuples
// of 26-bit keys (10 row bits over 16 column bits, three passes) under the
// flop rule alone, and 4 Ki tuples of 22-bit keys (6 over 16, two passes)
// under the two-pass trim. A bin holds what expand writes: runs of 8 tuples
// that share a row — one A entry times one 8-long row of B — each run
// ascending in distinct columns, as B's rows are, so nothing folds.
func BenchmarkSortFoldHypersparse(b *testing.B) {
	const colBits, run = 16, 8
	for _, g := range []struct{ n, keyBits int }{{1 << 16, 26}, {1 << 12, 22}} {
		b.Run(fmt.Sprintf("n%d/bits%d", g.n, g.keyBits), func(b *testing.B) {
			n, keyBits := g.n, g.keyBits
			r := rand.New(rand.NewSource(25))
			keys, vals := make([]uint32, n), make([]float64, n)
			for i := 0; i < n; i += run {
				row := uint32(r.Intn(1<<(keyBits-colBits))) << colBits
				cols := keys[i : i+run]
				for distinct := false; !distinct; {
					for j := range cols {
						cols[j] = uint32(r.Intn(1 << colBits))
					}
					sort.Slice(cols, func(x, y int) bool { return cols[x] < cols[y] })
					distinct = true
					for j := 1; j < run; j++ {
						distinct = distinct && cols[j] != cols[j-1]
					}
				}
				for j := range cols {
					cols[j] |= row
					vals[i+j] = r.Float64()
				}
			}
			k, v := make([]uint32, n), make([]float64, n)
			w0, w1, tmp := make([]uint64, n), make([]uint64, n), make([]float64, n)
			rows := make([]int64, 1<<(keyBits-colBits))
			b.SetBytes(int64(n) * 12)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(v, vals)
				SortFold(k, v, w0, w1, tmp, keyBits, rows, colBits)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
		})
	}
}

// BenchmarkKernels times the kernels on one L2-sized bin of 64 Ki tuples: the
// LSDs (typed, through a ⊕ function value, and key-only) at er_lowcf's 26-bit
// keys and at rmat_skew's 18, the dense folds at 18 (its key space is 4 slots
// per tuple there).
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
				SortFold(k, v, w0, w1, tmp, keyBits, nil, 0)
			}
		})
		plus := func(a, b float64) float64 { return a + b }
		b.Run(fmt.Sprintf("SortFoldBy/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(v, vals)
				SortFoldBy(k, v, w0, w1, tmp, keyBits, nil, 0, plus)
			}
		})
		b.Run(fmt.Sprintf("SortFoldPattern/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				SortFoldPattern(k, aux, keyBits, nil, 0)
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
		b.Run(fmt.Sprintf("FoldDenseBy/bits%d", keyBits), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(v, vals)
				FoldDenseBy(k, v, acc, occ, nil, 0, plus)
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
