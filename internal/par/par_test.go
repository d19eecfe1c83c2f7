package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForRangesCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		for _, threads := range []int{1, 2, 7, 64} {
			hits := make([]int32, n)
			ForRanges(n, threads, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d threads=%d: index %d hit %d times", n, threads, i, h)
				}
			}
		}
	}
}

func TestForEachDynamicCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 257} {
		for _, threads := range []int{1, 4, 32} {
			hits := make([]int32, n)
			ForEachDynamic(n, threads, func(_, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d threads=%d: index %d hit %d times", n, threads, i, h)
				}
			}
		}
	}
}

func TestBalancedBoundariesPartition(t *testing.T) {
	f := func(weightsRaw []uint16, partsSel uint8) bool {
		weights := make([]int64, len(weightsRaw))
		for i, w := range weightsRaw {
			weights[i] = int64(w)
		}
		parts := int(partsSel%16) + 1
		b := BalancedBoundaries(weights, parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != len(weights) {
			return false
		}
		for p := 0; p < parts; p++ {
			if b[p] > b[p+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedBoundariesBalance(t *testing.T) {
	// Uniform weights must split into near-equal ranges.
	weights := make([]int64, 1000)
	for i := range weights {
		weights[i] = 1
	}
	b := BalancedBoundaries(weights, 4)
	for p := 0; p < 4; p++ {
		size := b[p+1] - b[p]
		if size < 200 || size > 300 {
			t.Fatalf("part %d has %d elements, want ~250", p, size)
		}
	}
	// One heavy element: its part should be small in count.
	weights[0] = 1_000_000
	b = BalancedBoundaries(weights, 4)
	if b[1] != 1 {
		t.Fatalf("heavy first element should own part 0 alone, boundary = %d", b[1])
	}
}

func TestBalancedBoundariesEdgeCases(t *testing.T) {
	if b := BalancedBoundaries(nil, 4); b[4] != 0 {
		t.Fatal("empty weights mishandled")
	}
	if b := BalancedBoundaries([]int64{5}, 1); b[0] != 0 || b[1] != 1 {
		t.Fatal("single part mishandled")
	}
	// All-zero weights must still produce a valid partition.
	b := BalancedBoundaries(make([]int64, 10), 3)
	if b[0] != 0 || b[3] != 10 {
		t.Fatal("zero weights mishandled")
	}
}

func TestPrefixSum(t *testing.T) {
	counts := []int64{3, 0, 5, 2}
	out := make([]int64, 5)
	total := PrefixSum(counts, out)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := []int64{0, 3, 3, 8, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestParallelRunAllWorkersRun(t *testing.T) {
	var count atomic.Int32
	ParallelRun(8, func(worker int) {
		if worker < 0 || worker >= 8 {
			t.Errorf("worker id %d out of range", worker)
		}
		count.Add(1)
	})
	if count.Load() != 8 {
		t.Fatalf("ran %d workers, want 8", count.Load())
	}
}

func TestDefaultThreads(t *testing.T) {
	if DefaultThreads(5) != 5 {
		t.Fatal("explicit thread count not honoured")
	}
	if DefaultThreads(0) < 1 || DefaultThreads(-1) < 1 {
		t.Fatal("default thread count must be positive")
	}
}

// TestPrefixSumParallelMatchesSequential: identical output and total at any
// thread count, across the fallback cutoff.
func TestPrefixSumParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 100, prefixSumParallelCutoff - 1, prefixSumParallelCutoff, 1 << 17} {
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(i%17) - 3
		}
		want := make([]int64, n+1)
		wantTotal := PrefixSum(counts, want)
		for _, threads := range []int{1, 2, 3, 8} {
			got := make([]int64, n+1)
			gotTotal := PrefixSumParallel(counts, got, threads)
			if gotTotal != wantTotal {
				t.Fatalf("n=%d threads=%d: total %d, want %d", n, threads, gotTotal, wantTotal)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d threads=%d: out[%d] = %d, want %d", n, threads, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorkStealRunsEveryTaskOnce: seeds and spawned tasks each execute
// exactly once, at every thread count, including recursive spawning.
func TestWorkStealRunsEveryTaskOnce(t *testing.T) {
	const seedsN = 40
	const depth = 3 // each task spawns two children until depth exhausted
	type task struct {
		id    int
		depth int
	}
	// Total tasks: seedsN * (2^(depth+1) - 1).
	total := seedsN * ((1 << (depth + 1)) - 1)
	for _, threads := range []int{1, 2, 4, 8} {
		var ran sync.Map
		var count atomic.Int64
		seeds := make([]task, seedsN)
		for i := range seeds {
			seeds[i] = task{id: i, depth: depth}
		}
		nextID := atomic.Int64{}
		nextID.Store(seedsN)
		WorkStealPolicy(threads, seeds, nil, func(worker int, tk task, spawn func(task)) {
			if _, dup := ran.LoadOrStore(tk.id, true); dup {
				t.Errorf("threads=%d: task %d ran twice", threads, tk.id)
			}
			count.Add(1)
			if tk.depth > 0 {
				for c := 0; c < 2; c++ {
					spawn(task{id: int(nextID.Add(1)) - 1, depth: tk.depth - 1})
				}
			}
		})
		if got := count.Load(); got != int64(total) {
			t.Fatalf("threads=%d: ran %d tasks, want %d", threads, got, total)
		}
	}
}

// TestWorkStealEmpty: no seeds, no calls, no hang.
func TestWorkStealEmpty(t *testing.T) {
	WorkStealPolicy(4, nil, nil, func(int, int, func(int)) { t.Fatal("fn called with no seeds") })
}

// TestWorkStealDrainsSpawnsFromSlowWorker: one seed spawns many tasks; with
// several workers all of them must still complete (stealing drains the
// spawner's deque).
func TestWorkStealDrainsSpawnsFromSlowWorker(t *testing.T) {
	var count atomic.Int64
	WorkStealPolicy(4, []int{0}, nil, func(worker, task int, spawn func(int)) {
		count.Add(1)
		if task == 0 {
			for i := 1; i <= 100; i++ {
				spawn(i)
			}
		}
	})
	if got := count.Load(); got != 101 {
		t.Fatalf("ran %d tasks, want 101", got)
	}
}
