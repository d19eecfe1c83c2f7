package numa

import (
	"time"

	"pbspgemm/internal/gen"
)

// MeasureLatencyNs measures the host's memory access latency with a
// pointer-chase over a random permutation that defeats prefetching — the
// same methodology as Intel's Memory Latency Checker that the paper used for
// Table VII. bytes is the chase footprint (should exceed LLC; default
// 256 MiB when <= 0). It fills the local (same-socket) cell of the simulated
// topology with a real measurement.
func MeasureLatencyNs(bytes int64, seed uint64) float64 {
	if bytes <= 0 {
		bytes = 256 << 20
	}
	n := max(int(bytes/8), 1024)
	next := make([]int64, n)
	// Sattolo's algorithm builds a single random cycle covering all slots,
	// guaranteeing the chase visits every element with no short cycles.
	perm := randomCycle(n, seed)
	for i := 0; i < n; i++ {
		next[i] = int64(perm[i])
	}

	// Warm the page tables with one full traversal.
	idx := int64(0)
	for i := 0; i < n; i++ {
		idx = next[idx]
	}

	const hops = 1 << 22
	start := time.Now()
	for i := 0; i < hops; i++ {
		idx = next[idx]
	}
	elapsed := time.Since(start)
	sink = idx // defeat dead-code elimination
	return float64(elapsed.Nanoseconds()) / float64(hops)
}

var sink int64

// randomCycle returns a permutation that is one cycle of length n
// (Sattolo's algorithm) using the repo's deterministic PRNG.
func randomCycle(n int, seed uint64) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r := gen.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := int(r.Intn(int32(i))) // j in [0, i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
