// Package par provides the parallel scheduling primitives used throughout the
// PB-SpGEMM reproduction. The paper parallelizes with OpenMP: the expand phase
// assigns contiguous, flop-balanced column ranges to threads (static
// scheduling), and the fused sort/fold phase and assemble hand out whole bins
// dynamically ("bins per thread", Table III). This package reproduces both
// patterns with goroutines and provides weight-balanced range partitioning.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads returns the degree of parallelism to use when a caller
// passes a non-positive thread count. It honours GOMAXPROCS, the Go
// equivalent of OMP_NUM_THREADS.
func DefaultThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return runtime.GOMAXPROCS(0)
}

// ForRanges runs fn(t, lo, hi) on each of the threads half-open index ranges
// produced by splitting [0, n) into near-equal contiguous chunks, one chunk
// per worker. fn receives the worker id t in [0, threads). It blocks until
// all workers finish. This is the analogue of OpenMP "schedule(static)".
//
// A panic inside fn does not kill the process: it is recovered in the worker
// and re-raised on the calling goroutine as a *PanicError after the join.
// Static ranges have no scheduling points, so the sibling workers finish
// their chunks first; callers needing prompt sibling abort poll their own
// flag inside fn (internal/core does).
func ForRanges(n, threads int, fn func(worker, lo, hi int)) {
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return
	}
	if threads <= 1 {
		protect(0, func() { fn(0, 0, n) })
		return
	}
	var g guard
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		go func(t, lo, hi int) {
			defer wg.Done()
			g.run(t, func() { fn(t, lo, hi) })
		}(t, lo, hi)
	}
	wg.Wait()
	g.rethrow()
}

// ForEachDynamic runs fn(worker, i) for every i in [0, n), handing indices to
// workers one at a time through an atomic counter. This is the analogue of
// OpenMP "schedule(dynamic,1)" and is how the fused sort/fold phase and
// assemble walk bins: cheap bins finish quickly and their workers immediately
// take the next bin, which is what gives PB-SpGEMM its load balance on skewed
// inputs.
func ForEachDynamic(n, threads int, fn func(worker, i int)) {
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return
	}
	if threads <= 1 {
		protect(0, func() {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
		})
		return
	}
	var g guard
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer wg.Done()
			g.run(t, func() {
				for {
					// A sibling panicked: stop taking indices so the call
					// drains at scheduling granularity, not at n.
					if g.stop() {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(t, i)
				}
			})
		}(t)
	}
	wg.Wait()
	g.rethrow()
}

// BalancedBoundaries splits the index range [0, len(weights)) into parts
// contiguous ranges whose total weights are as equal as a greedy prefix scan
// can make them. It returns parts+1 boundaries b with b[0]=0 and
// b[parts]=len(weights); part p covers [b[p], b[p+1]). This is how the expand
// phase assigns columns of A to threads so that each thread performs roughly
// flop/threads multiplications (the paper's static schedule stays balanced
// because ER columns are uniform; for RMAT the weights make it balanced too).
func BalancedBoundaries(weights []int64, parts int) []int {
	return BalancedBoundariesInto(weights, parts, make([]int, max(parts, 1)+1))
}

// BalancedBoundariesInto is BalancedBoundaries writing into a caller-provided
// slice b of length parts+1 (allocation-free for pooled callers). It returns b.
func BalancedBoundariesInto(weights []int64, parts int, b []int) []int {
	n, parts := len(weights), max(parts, 1)
	b[0] = 0
	b[parts] = n
	var total int64
	for _, w := range weights {
		total += w
	}
	if n == 0 || parts == 1 {
		clear(b[1:parts])
		return b
	}
	target := total / int64(parts)
	var acc int64
	p := 1
	for i := 0; i < n && p < parts; i++ {
		acc += weights[i]
		// Close part p-1 once it reaches its proportional share.
		for p < parts && acc >= target*int64(p) {
			b[p] = i + 1
			p++
		}
	}
	for ; p < parts; p++ {
		b[p] = n
	}
	return b
}

// PrefixSum writes the exclusive prefix sum of counts into out (which must
// have len(counts)+1 entries) and returns the total. out[0]=0,
// out[i]=sum(counts[:i]).
func PrefixSum(counts []int64, out []int64) int64 {
	var acc int64
	out[0] = 0
	for i, c := range counts {
		acc += c
		out[i+1] = acc
	}
	return acc
}

// prefixSumParallelCutoff is the input size below which the two-pass parallel
// prefix sum loses to the sequential scan's single pass.
const prefixSumParallelCutoff = 1 << 15

// PrefixSumParallel is PrefixSum split over workers with the classic two-pass
// scheme: per-range totals first, then each range rescans with its exclusive
// offset. Integer addition is associative, so the result is identical to the
// sequential PrefixSum at any thread count; small inputs (or one thread) fall
// back to it outright. The fused assemble uses this to fix the output row
// pointers once the per-bin counts are exact. Both passes run on ForRanges,
// so worker panics surface as *PanicError like every other primitive here.
func PrefixSumParallel(counts, out []int64, threads int) int64 {
	n := len(counts)
	threads = DefaultThreads(threads)
	if threads <= 1 || n < prefixSumParallelCutoff {
		return PrefixSum(counts, out)
	}
	threads = min(threads, n)
	sums := make([]int64, threads)
	ForRanges(n, threads, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[w] = s
	})
	var total int64
	for w, s := range sums {
		sums[w] = total // exclusive offset of range w
		total += s
	}
	out[0] = 0
	ForRanges(n, threads, func(w, lo, hi int) {
		acc := sums[w]
		for i := lo; i < hi; i++ {
			acc += counts[i]
			out[i+1] = acc
		}
	})
	return total
}

// ParallelRun invokes fn(worker) on exactly threads workers and waits.
// Workers coordinate through whatever state fn closes over. Worker panics
// are captured and re-raised typed on the caller, like ForRanges.
func ParallelRun(threads int, fn func(worker int)) {
	threads = DefaultThreads(threads)
	if threads <= 1 {
		protect(0, func() { fn(0) })
		return
	}
	var g guard
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer wg.Done()
			g.run(t, func() { fn(t) })
		}(t)
	}
	wg.Wait()
	g.rethrow()
}
