package baseline

import (
	"math/bits"

	"pbspgemm/internal/matrix"
)

// Hash computes C = A*B with HashSpGEMM (Nagasaka et al. [12], [27]): each
// output row is accumulated in a thread-private open-addressing hash table
// keyed by column index, then extracted and sorted. Complexity O(flop)
// assuming few collisions; the paper notes hash wins over PB when the
// compression factor exceeds ~4 because it never materializes C-hat.
func Hash(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	return run(a, b, opt, algorithm{merge: hashMergeLinear})
}

// HashVec computes C = A*B with HashVecSpGEMM, the paper's vector-register
// variant of hash probing [12]. Without SIMD intrinsics in Go, the vector
// probe is modeled as group-of-8 batched probing: the table is organized in
// 8-slot groups, a lookup scans one whole group before moving to the next,
// which preserves the algorithm's collision behaviour (fewer, wider probe
// steps).
func HashVec(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	return run(a, b, opt, algorithm{merge: hashMergeGrouped})
}

const (
	emptySlot = int32(-1)
	groupSize = 8 // slots probed per step in the HashVec variant
)

// hashScale multiplies the per-row nonzero count to get the table size,
// keeping load factor ≤ 0.5 as the reference implementation does.
const hashScale = 2

func hashMergeLinear(sc *scratch, a, b *matrix.CSR, i int32, dstCol []int32, dstVal []float64) int {
	return hashMerge(sc, a, b, i, dstCol, dstVal, probeLinear)
}

func hashMergeGrouped(sc *scratch, a, b *matrix.CSR, i int32, dstCol []int32, dstVal []float64) int {
	return hashMerge(sc, a, b, i, dstCol, dstVal, probeGrouped)
}

// hashMerge accumulates row i into the thread's pooled hash table. The
// table is sized per row to the next power of two ≥ 2× the row's output
// nonzeros (known exactly from the symbolic phase via dst length), then
// reset eagerly — per-row table sizes are small by construction, so the
// reset stays in cache.
func hashMerge(sc *scratch, a, b *matrix.CSR, i int32, dstCol []int32, dstVal []float64,
	probe func(cols []int32, mask uint32, col int32) int) int {
	need := hashScale * len(dstCol)
	size := 1 << bits.Len(uint(need-1))
	if size < groupSize {
		size = groupSize
	}
	cols := matrix.Grow(&sc.hashCols, size)
	vals := matrix.Grow(&sc.hashVals, size)
	for j := range cols {
		cols[j] = emptySlot
	}
	mask := uint32(size - 1)

	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		k := a.ColIdx[p]
		av := a.Val[p]
		for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
			j := b.ColIdx[q]
			slot := probe(cols, mask, j)
			if cols[slot] == emptySlot {
				cols[slot] = j
				vals[slot] = av * b.Val[q]
			} else {
				vals[slot] += av * b.Val[q]
			}
		}
	}

	// Extract and sort by column for canonical CSR.
	n := 0
	for s, cj := range cols {
		if cj != emptySlot {
			dstCol[n] = cj
			dstVal[n] = vals[s]
			n++
		}
	}
	sortPairs(dstCol[:n], dstVal[:n])
	return n
}

// hash32 is the Fibonacci multiplicative hash the reference hash SpGEMM uses.
func hash32(col int32) uint32 {
	return uint32(col) * 2654435761
}

// probeLinear finds col's slot (existing or first empty) by classic linear
// probing.
func probeLinear(cols []int32, mask uint32, col int32) int {
	h := hash32(col) & mask
	for {
		c := cols[h]
		if c == col || c == emptySlot {
			return int(h)
		}
		h = (h + 1) & mask
	}
}

// probeGrouped scans groupSize consecutive slots per step (the HashVec
// batched probe).
func probeGrouped(cols []int32, mask uint32, col int32) int {
	h := hash32(col) & mask &^ (groupSize - 1)
	for {
		for g := uint32(0); g < groupSize; g++ {
			s := (h + g) & mask
			c := cols[s]
			if c == col || c == emptySlot {
				return int(s)
			}
		}
		h = (h + groupSize) & mask
	}
}

// sortPairs sorts cols ascending carrying vals, used to canonicalize
// hash-extracted rows: insertion sort for short rows (the common case),
// in-place heapsort otherwise. Both paths are allocation-free, keeping the
// pooled-workspace steady state at zero allocations.
func sortPairs(cols []int32, vals []float64) {
	if len(cols) < 2 {
		return
	}
	if len(cols) <= 24 {
		for i := 1; i < len(cols); i++ {
			c, v := cols[i], vals[i]
			j := i - 1
			for j >= 0 && cols[j] > c {
				cols[j+1] = cols[j]
				vals[j+1] = vals[j]
				j--
			}
			cols[j+1] = c
			vals[j+1] = v
		}
		return
	}
	heapSortPairs(cols, vals)
}

// heapSortPairs is an in-place max-heap sort over parallel arrays.
func heapSortPairs(cols []int32, vals []float64) {
	n := len(cols)
	for root := n/2 - 1; root >= 0; root-- {
		siftDownPairs(cols, vals, root, n)
	}
	for end := n - 1; end > 0; end-- {
		cols[0], cols[end] = cols[end], cols[0]
		vals[0], vals[end] = vals[end], vals[0]
		siftDownPairs(cols, vals, 0, end)
	}
}

func siftDownPairs(cols []int32, vals []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && cols[r] > cols[child] {
			child = r
		}
		if cols[root] >= cols[child] {
			return
		}
		cols[root], cols[child] = cols[child], cols[root]
		vals[root], vals[child] = vals[child], vals[root]
		root = child
	}
}
