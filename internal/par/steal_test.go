package par

import (
	"sync/atomic"
	"testing"
)

// TestWorkStealPolicyNilMatchesWorkSteal: with a nil policy (the wrapper that
// once carried the name WorkSteal) every seed and every spawned task runs once.
func TestWorkStealPolicyNilMatchesWorkSteal(t *testing.T) {
	var sum atomic.Int64
	seeds := make([]int, 100)
	for i := range seeds {
		seeds[i] = i
	}
	WorkStealPolicy(4, seeds, nil, func(_ int, task int, spawn func(int)) {
		sum.Add(int64(task))
		if task < 10 {
			spawn(task + 1000)
		}
	})
	want := int64(100*99/2) + 10*1000 + 10*9/2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestStealCountersConserve: owned + stolen task counts must equal the total
// number of tasks executed, at any thread count.
func TestStealCountersConserve(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		var pol StealPolicy
		pol.EnsureCounters(threads)
		seeds := make([]int, 200)
		var ran atomic.Int64
		WorkStealPolicy(threads, seeds, &pol, func(_ int, task int, spawn func(int)) {
			ran.Add(1)
			if task == 0 {
				// nothing
			}
		})
		owned, stolen := pol.Totals()
		if owned+stolen != ran.Load() || ran.Load() != 200 {
			t.Fatalf("threads=%d: owned %d + stolen %d != ran %d", threads, owned, stolen, ran.Load())
		}
		if threads == 1 && (stolen != 0 || owned != 200) {
			t.Fatalf("threads=1: owned %d stolen %d, want 200/0", owned, stolen)
		}
	}
}
