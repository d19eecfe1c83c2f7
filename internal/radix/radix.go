// Package radix holds the sort and fold kernels the engine runs over one
// global bin of expanded tuples (the paper's Section III-D, "sort and merge
// each bin in cache"). Keys are packed (localRow<<colBits | col) pairs.
//
// Every layout of internal/core is a key32 layout — a uint32 key plane beside
// an optional value plane — served by two flat kernels, chosen per bin by the
// caller from the bin's tuple count and its packed key width:
//
//   - FoldDense / FoldDensePattern (dense.go), for a bin whose key space is
//     no larger than a few slots per tuple: a direct-address accumulator —
//     one value slot per key plus an occupancy bitmap — folds the tuples in
//     arrival order and is then walked in key order. It is the radix sort
//     whose one digit is the whole key, with the merge fused into it.
//   - SortFoldBy / SortFoldPattern (lsd.go), for every other bin: a
//     fixed-pass stable LSD radix that sorts key<<32|index words and gathers
//     each value once, in the final sweep that also folds equal neighbours.
//
// Both fold an equal-key group as one chain in arrival order — the first
// value assigned, each later one folded in — which is exactly what a
// two-pointer compress does over a stably sorted bin. So dense and sparse
// bins produce the same bytes, special values (−0.0, NaN, ±Inf) and int32
// wrap-around included. FoldDense folds with a typed +, FoldDenseBy and
// SortFoldBy through the caller's ⊕, over any value type: the same chain, so
// the same bytes, whatever ⊕ is. internal/core's one value layout binds its
// folds once per call: FoldDense and SortFoldBy with a typed add for (+, ×)
// over float64, float32 and int32, the By pair for any other semiring.
//
// SortPairsInPlace (pairs.go) is no layout's: it is the unstable in-place
// sort of COO entries with 64-bit keys that format conversion runs.
package radix

// insertionCutoff is the sub-slice size below which SortPairsInPlace switches
// to insertion sort. 32 is the conventional choice for 16-byte elements.
const insertionCutoff = 32

// GrowUint32 returns (*buf)[:n], reallocating only when capacity is short;
// contents are unspecified.
func GrowUint32(buf *[]uint32, n int64) []uint32 {
	if int64(cap(*buf)) < n {
		*buf = make([]uint32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
