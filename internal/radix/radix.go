// Package radix holds the sort and fold kernels the engine runs over one
// global bin of expanded tuples (the paper's Section III-D, "sort and merge
// each bin in cache"). Keys are packed (localRow<<colBits | col) pairs.
//
// A bin is a uint32 key plane beside an optional value plane, folded by one
// of two kernels the caller picks from its tuple count and key width:
// FoldDense / FoldDenseBy / FoldDensePattern (dense.go), a direct-address
// accumulator and occupancy bitmap walked in key order, for a key space of a
// few slots a tuple; SortFoldBy / SortFoldPattern (lsd.go), a fixed-pass
// stable LSD radix over key<<32|index words that gathers each value once in
// the sweep that folds, for every other bin. Each writes the folded tuples as
// column ids and values to a destination at or before the bin, and tallies
// their rows.
//
// Both fold an equal-key group as one chain in arrival order — the first
// value assigned, each later one folded in — as a two-pointer compress does
// over a stably sorted bin: the same bytes, special values (−0.0, NaN, ±Inf)
// and int32 wrap-around included, whatever ⊕ is. FoldDense folds with a typed
// +, the By kernels through the caller's ⊕.
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
