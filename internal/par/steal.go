package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// StealPolicy carries WorkStealPolicy's per-worker counters. A nil policy
// (or nil counter slices) counts nothing.
type StealPolicy struct {
	// Per-worker counters, written with plain stores (slot w is touched only
	// by worker w) and valid after WorkStealPolicy returns. Owned counts
	// tasks popped from the worker's own deque, Stolen tasks taken from
	// another worker's.
	Owned, Stolen []int64
}

// EnsureCounters sizes (and zeroes) the counter slices for a run with the
// given worker count, reusing capacity grow-only.
func (p *StealPolicy) EnsureCounters(threads int) {
	for _, s := range []*[]int64{&p.Owned, &p.Stolen} {
		if cap(*s) < threads {
			*s = make([]int64, threads)
		}
		*s = (*s)[:threads]
		clear(*s)
	}
}

// Totals sums the per-worker counters.
func (p *StealPolicy) Totals() (owned, stolen int64) {
	for _, v := range p.Owned {
		owned += v
	}
	for _, v := range p.Stolen {
		stolen += v
	}
	return
}

// WorkStealPolicy runs a dynamically growing task set over a fixed pool of
// workers with per-worker deques: fn may spawn follow-up tasks (a partitioned
// oversized bin hands out its buckets), which land on the spawning worker's
// own deque; idle workers steal from the others, victims tried round-robin
// from the thief's right-hand neighbour. Unlike ForEachDynamic's shared
// counter, splitting work mid-task needs no second scheduling pass — the sort
// phase uses this so one skewed bin's partition and bucket sorts spread across
// workers instead of serializing its tail. The call returns when every task,
// including every spawned one, has completed; fn must not retain spawn beyond
// its own invocation. Task order is unspecified: callers needing determinism
// make tasks commutative (disjoint output ranges, as bins are). pol, if
// non-nil, counts the tasks each worker owned and stole.
func WorkStealPolicy[T any](threads int, seeds []T, pol *StealPolicy, fn func(worker int, task T, spawn func(T))) {
	threads = DefaultThreads(threads)
	if len(seeds) == 0 {
		return
	}
	if threads <= 1 {
		protect(0, func() {
			stack := append(make([]T, 0, 2*len(seeds)), seeds...)
			spawn := func(t T) { stack = append(stack, t) }
			for len(stack) > 0 {
				t := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if pol != nil && pol.Owned != nil {
					pol.Owned[0]++
				}
				fn(0, t, spawn)
			}
		})
		return
	}
	deques := make([]wsDeque[T], threads)
	for i, s := range seeds {
		deques[i%threads].buf = append(deques[i%threads].buf, s)
	}
	var g guard
	var pending atomic.Int64
	pending.Store(int64(len(seeds)))
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer wg.Done()
			g.run(t, func() {
				self := &deques[t]
				spawn := func(nt T) {
					pending.Add(1)
					self.push(nt)
				}
				idle := 0
				for {
					// A panicking task never decrements pending, so without
					// this check the siblings would spin in the idle loop
					// forever waiting for a count that cannot reach zero.
					if g.stop() {
						return
					}
					task, ok := self.popTail()
					stolen := false
					for i := 1; !ok && i < threads; i++ {
						task, ok = deques[(t+i)%threads].stealHead()
						stolen = ok
					}
					if ok {
						idle = 0
						if pol != nil && pol.Owned != nil {
							if stolen {
								pol.Stolen[t]++
							} else {
								pol.Owned[t]++
							}
						}
						fn(t, task, spawn)
						if pending.Add(-1) == 0 {
							return
						}
						continue
					}
					if pending.Load() == 0 {
						return
					}
					// Tasks are in flight on other workers and may yet spawn.
					// Yield first (a spawn usually lands within a few rounds),
					// then back off to sleeping so an idle tail behind one long
					// task doesn't burn the other cores' cycles hammering the
					// deque mutexes.
					if idle++; idle < 64 {
						runtime.Gosched()
					} else {
						time.Sleep(20 * time.Microsecond)
					}
				}
			})
		}(t)
	}
	wg.Wait()
	g.rethrow()
}
