// Package radix holds the sort and fold kernels the engine runs over one
// global bin of expanded tuples (the paper's Section III-D, "sort and merge
// each bin in cache"). Keys are packed (localRow<<colBits | col) pairs.
//
// The key32 layouts (squeezed, narrow, pattern — a uint32 key plane beside an
// optional value plane) are served by two flat kernels, chosen per bin by the
// caller from the bin's tuple count and its packed key width:
//
//   - FoldDense / FoldDensePattern (dense.go), for a bin whose key space is
//     no larger than a few slots per tuple: a direct-address accumulator —
//     one value slot per key plus an occupancy bitmap — folds the tuples in
//     arrival order and is then walked in key order. It is the radix sort
//     whose one digit is the whole key, with the merge fused into it.
//   - SortFold / SortFoldPattern (lsd.go), for every other bin: a fixed-pass
//     stable LSD radix that sorts key<<32|index words and gathers each value
//     once, in the final sweep that also folds equal neighbours. With fold
//     off it is the stable sort of the buckets PartitionTop cuts an
//     oversized bin into.
//
// Both fold an equal-key group as one chain in arrival order — the first
// value assigned, each later one added — which is exactly what a two-pointer
// compress does over a stably sorted bin. So dense, sparse and
// split-across-workers (bucket sorts, then the compress) all produce the same
// bytes, special
// values (−0.0, NaN, ±Inf) and int32 wrap-around included.
//
// The wide layout's 16-byte Pair[V] (a 64-bit key, for products whose
// localRow and col do not fit 32 bits together, and any value type, for
// products over a custom semiring) has one stable sort of its own, SortPairs
// (pairs.go): the same fixed-pass LSD plan over whole elements, folding
// through the caller's ⊕ as its last pass stores (CompressPairs is the
// two-pointer compress of the split route), with PartitionPairs
// as its top-digit split, and FoldDensePairs, FoldDense through that ⊕, for the
// bins whose key space is small enough to address — the same chain, so the
// same bytes. SortPairsInPlace beside them is the unstable in-place sort of
// the callers that have no scratch plane (ESC baseline, format conversion).
package radix

// insertionCutoff is the sub-slice size below which SortPairsInPlace switches
// to insertion sort. 32 is the conventional choice for 16-byte elements.
const insertionCutoff = 32

// digitBits is the digit width of the partition passes: 256 buckets keep a
// pass's cursor array inside L1.
const digitBits = 8

// maxBuckets sizes the per-pass counter arrays.
const maxBuckets = 1 << digitBits

// GrowUint32 returns (*buf)[:n], reallocating only when capacity is short;
// contents are unspecified. Counterpart of GrowPairs for the key32 planes.
func GrowUint32(buf *[]uint32, n int64) []uint32 {
	if int64(cap(*buf)) < n {
		*buf = make([]uint32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
