package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func pairsSorted(ps []Pair[float64]) bool {
	return sort.SliceIsSorted(ps, func(a, b int) bool { return ps[a].Key < ps[b].Key })
}

func TestSortPairsInPlaceMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 500, 20000} {
		for _, maxKey := range []uint64{2, 256, 1 << 20, 1 << 40, ^uint64(0)} {
			ps := make([]Pair[float64], n)
			for i := range ps {
				ps[i] = Pair[float64]{Key: r.Uint64() % maxKey, Val: r.Float64()}
			}
			want := append([]Pair[float64](nil), ps...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			SortPairsInPlace(ps)
			if !pairsSorted(ps) {
				t.Fatalf("n=%d maxKey=%d: not sorted", n, maxKey)
			}
			for i := range ps {
				if ps[i].Key != want[i].Key {
					t.Fatalf("n=%d maxKey=%d: key[%d] = %d, want %d", n, maxKey, i, ps[i].Key, want[i].Key)
				}
			}
		}
	}
}

func TestSortPairsInPlacePreservesPayloadMultiset(t *testing.T) {
	f := func(keys []uint64) bool {
		ps := make([]Pair[float64], len(keys))
		sum := 0.0
		for i, k := range keys {
			ps[i] = Pair[float64]{Key: k % 1024, Val: float64(i)}
			sum += float64(i)
		}
		SortPairsInPlace(ps)
		var got float64
		seen := make(map[float64]bool)
		for _, p := range ps {
			if seen[p.Val] {
				return false // payload duplicated
			}
			seen[p.Val] = true
			got += p.Val
		}
		return got == sum && pairsSorted(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsInPlaceAllEqual(t *testing.T) {
	ps := make([]Pair[float64], 100)
	for i := range ps {
		ps[i] = Pair[float64]{Key: 42, Val: float64(i)}
	}
	SortPairsInPlace(ps)
	if !pairsSorted(ps) {
		t.Fatal("equal keys broke sorting")
	}
}

func BenchmarkSortPairsInPlace64K(b *testing.B) {
	// One L2-sized bin: 64K tuples with 30-bit (squeezed) keys, the PB sort
	// phase's unit of work.
	r := rand.New(rand.NewSource(1))
	src := make([]Pair[float64], 1<<16)
	for i := range src {
		src[i] = Pair[float64]{Key: r.Uint64() & (1<<30 - 1), Val: r.Float64()}
	}
	work := make([]Pair[float64], len(src))
	b.SetBytes(int64(len(src) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		SortPairsInPlace(work)
	}
}
