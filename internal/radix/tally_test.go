package radix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tallyLinear is Tally's oracle, and the loop it replaced: a compare per
// key, a store per row change.
func tallyLinear(keys []uint32, rows []int64, colBits uint) {
	if rows == nil || len(keys) == 0 {
		return
	}
	row, count := keys[0]>>colBits, int64(0)
	for _, k := range keys {
		if r := k >> colBits; r != row {
			rows[row] += count
			row, count = r, 0
		}
		count++
	}
	rows[row] += count
}

// runKeys builds sorted, distinct keys: row r (from 0) holds runs[r] keys,
// with columns spread over the colBits-bit column space.
func runKeys(r *rand.Rand, runs []int, colBits uint) []uint32 {
	var keys []uint32
	for row, n := range runs {
		cols := r.Perm(1 << min(colBits, 16))[:n]
		slices.Sort(cols)
		for _, c := range cols {
			keys = append(keys, uint32(row)<<colBits|uint32(c))
		}
	}
	return keys
}

// TestTallyMatchesLinearCount: Tally's galloping count equals a linear one,
// added onto whatever rows held, on every run shape it branches on.
func TestTallyMatchesLinearCount(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	type tc struct {
		name    string
		keys    []uint32
		colBits uint
	}
	cases := []tc{
		{"empty", nil, 6},
		{"one-key", []uint32{5<<6 | 9}, 6},
		{"single-row", runKeys(r, []int{0, 0, 0, 64}, 6), 6},
		{"own-rows-colbits0", []uint32{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}, 0},
		{"own-rows-colbits6", runKeys(r, slices.Repeat([]int{1}, 40), 6), 6},
		// Row 1 is every key with the top bit set: two runs at most.
		{"colbits31", []uint32{0, 1, 7, 1 << 30, 1<<31 | 2, 1<<31 | 3, 1<<31 | 1<<30, ^uint32(0)}, 31},
		{"colbits31-one-row", []uint32{1<<31 | 4, 1<<31 | 5, 1<<31 | 6, 1<<31 | 7, 1<<31 | 8, 1<<31 | 9}, 31},
	}
	// Runs of every length 1–65 (straddling 4, 8, 16, 32 and 64: the gallop's
	// probes), alone, mixed with short runs, and ending the segment.
	for n := 1; n <= 65; n++ {
		cases = append(cases,
			tc{fmt.Sprintf("run-%d", n), runKeys(r, []int{n}, 8), 8},
			tc{fmt.Sprintf("run-%d-between", n), runKeys(r, []int{1, n, 2, n, 3}, 8), 8},
			tc{fmt.Sprintf("run-%d-last", n), runKeys(r, []int{3, 0, 1, n}, 8), 8})
	}
	mixed := make([]int, 200)
	for i := range mixed {
		mixed[i] = 1 + r.Intn(65)
	}
	cases = append(cases, tc{"mixed-1-65", runKeys(r, mixed, 7), 7})
	for _, c := range cases {
		nrows := 1
		if len(c.keys) > 0 {
			nrows = int(c.keys[len(c.keys)-1]>>c.colBits) + 1
		}
		got, want := make([]int64, nrows), make([]int64, nrows)
		for i := range got {
			got[i], want[i] = int64(i), int64(i) // Tally adds to what rows hold
		}
		Tally(c.keys, got, c.colBits)
		tallyLinear(c.keys, want, c.colBits)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Tally %v, linear count %v", c.name, got, want)
		}
		Tally(c.keys, nil, c.colBits) // rows == nil skips the tally
	}
}

// BenchmarkTally pairs Tally with the linear loop it replaced, in ns per key,
// on runs of 1, 1–3 and 2–8 keys (hypersparse bins: the gallop must cost
// them nothing) and of 100–300 (the rows of a dense bin).
func BenchmarkTally(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, s := range []struct{ lo, hi int }{{1, 1}, {1, 3}, {2, 8}, {100, 300}} {
		runs := make([]int, 0, 1<<14)
		for n := 0; n < 1<<14; n += runs[len(runs)-1] {
			runs = append(runs, s.lo+r.Intn(s.hi-s.lo+1))
		}
		keys := runKeys(r, runs, 10)
		rows := make([]int64, len(runs))
		for _, f := range []struct {
			name string
			fn   func([]uint32, []int64, uint)
		}{{"gallop", Tally}, {"linear", tallyLinear}} {
			b.Run(fmt.Sprintf("runs%d-%d/%s", s.lo, s.hi, f.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f.fn(keys, rows, 10)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
			})
		}
	}
}
