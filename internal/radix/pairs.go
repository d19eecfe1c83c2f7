package radix

import (
	"fmt"
	"math/bits"
)

// Pair is one expanded tuple of the wide layout: a packed (rowid, colid) key
// of up to 64 bits and the multiplied value, adjacent as in the paper's COO
// tuple, so a sort pass moves one element. V is whatever the product
// multiplies over: the engine's float64, or a semiring's element type.
type Pair[V any] struct {
	Key uint64
	Val V
}

// maxPairPasses bounds SortPairs' plan: ⌈64/maxDigitBits⌉ digits cover any key.
const maxPairPasses = 6

// SortPairs is the wide layout's fused sort and fold: lsd.go's fixed-pass
// stable LSD radix over whole 16-byte elements, on the low keyBits bits of Key
// (all keys must agree on the bits above; it panics otherwise rather than
// mis-sort). The plan is fixed before any tuple moves, one sweep fills the
// histograms of every digit, a digit on which all keys agree is skipped, and
// each remaining pass is one stable counting scatter between ps and aux (at
// least len(ps) long, clobbered).
//
// The last pass also folds equal keys through plus: a bucket of that pass
// receives its tuples in key order, so a tuple whose key equals the one its
// bucket received last is folded into it instead of stored, and the buckets'
// folded prefixes are then closed up. Equal keys meet in arrival order —
// every pass is stable — so the fold is the chain first value assigned, each
// later one added to it, and a budgeted run's re-fold of gathered runs and
// FoldDensePairs agree with it bit for bit, whatever plus is. Returns the
// tuple count left in the prefix of ps.
func SortPairs[V any](ps, aux []Pair[V], keyBits int, plus func(a, b V) V) int {
	n := len(ps)
	if n < 2 {
		return n
	}
	passes, digit := lsdPlan(n, keyBits)
	if passes > maxPairPasses {
		// A short segment of very wide keys: wider digits, not more tables.
		passes = maxPairPasses
		digit = (keyBits + passes - 1) / passes
	}
	mask := uint64(1)<<digit - 1
	var hist [maxPairPasses][1 << maxDigitBits]uint32
	k0 := ps[0].Key
	var diff uint64
	s1, s2 := uint(digit)&63, uint(2*digit)&63
	switch passes { // 2 and 3 unrolled like lsd.go's count: the loop form costs the fold a fifth at 2 digits
	case 2:
		for i := range ps {
			k := ps[i].Key
			diff |= k ^ k0
			hist[0][k&mask&bucketMask]++
			hist[1][k>>s1&mask&bucketMask]++
		}
	case 3:
		for i := range ps {
			k := ps[i].Key
			diff |= k ^ k0
			hist[0][k&mask&bucketMask]++
			hist[1][k>>s1&mask&bucketMask]++
			hist[2][k>>s2&mask&bucketMask]++
		}
	default:
		for i := range ps {
			k := ps[i].Key
			diff |= k ^ k0
			for p := 0; p < passes; p++ {
				hist[p][k&mask&bucketMask]++
				k >>= uint(digit)
			}
		}
	}
	if keyBits < 64 && diff>>uint(keyBits) != 0 {
		panic(fmt.Sprintf("radix: keys disagree above bit %d (diff %#x)", keyBits, diff))
	}
	if diff == 0 {
		// Every key equal: arrival order is the sorted order.
		acc := ps[0].Val
		for _, p := range ps[1:] {
			acc = plus(acc, p.Val)
		}
		ps[0].Val = acc
		return 1
	}
	last := (bits.Len64(diff) - 1) / digit // the highest digit any tuples differ on
	starts(hist[:last+1], digit)
	src, dst := ps, aux[:n]
	for p := 0; p < last; p++ {
		shift := uint(p*digit) & 63
		if diff>>shift&mask == 0 {
			continue // all tuples agree on this digit
		}
		scatterPairs(src, dst, &hist[p], shift, mask)
		src, dst = dst, src
	}
	return foldPass(ps, src, dst, &hist[last], digit, uint(last*digit)&63, plus)
}

//go:noinline
func scatterPairs[V any](src, dst []Pair[V], h *[1 << maxDigitBits]uint32, shift uint, mask uint64) {
	for i := range src {
		d := src[i].Key >> (shift & 63) & mask & bucketMask
		dst[h[d]] = src[i]
		h[d]++
	}
}

// foldPass is SortPairs' last pass with the fold in it: the scatter of src
// into dst by the digit at shift, h holding the buckets' start offsets, where a
// tuple equal in key to its bucket's latest is folded into that one; then the
// buckets' prefixes are closed up into the prefix of ps (which is src or dst).
func foldPass[V any](ps, src, dst []Pair[V], h *[1 << maxDigitBits]uint32, digit int, shift uint, plus func(a, b V) V) int {
	mask := uint64(1)<<digit - 1
	first := *h
	for i := range src {
		p := src[i]
		d := p.Key >> shift & mask & bucketMask
		at := h[d]
		if at > first[d] && dst[at-1].Key == p.Key {
			dst[at-1].Val = plus(dst[at-1].Val, p.Val)
			continue
		}
		dst[at] = p
		h[d] = at + 1
	}
	out := 0
	for d := range first[:1<<digit] {
		out += copy(ps[out:], dst[first[d]:h[d]]) // never forward of its source
	}
	return out
}

// FoldDensePairs is FoldDense for the wide layout and any ⊕: acc holds one
// value slot per possible key of the bin and occ one bit per slot, all-zero on
// entry and again on return. Tuples fold in arrival order, a slot's first
// value assigned and later ones added through plus — SortPairs' chain — and
// the bitmap walk emits the folded tuples in key order into the prefix of ps.
func FoldDensePairs[V any](ps []Pair[V], acc []V, occ []uint64, plus func(a, b V) V) int {
	for i := range ps {
		k := ps[i].Key
		if w, b := k>>6, uint64(1)<<(k&63); occ[w]&b == 0 {
			occ[w] |= b
			acc[k] = ps[i].Val
		} else {
			acc[k] = plus(acc[k], ps[i].Val)
		}
	}
	var zero V
	out := 0
	for wi, word := range occ {
		occ[wi] = 0
		for ; word != 0; word &= word - 1 {
			k := uint64(wi)<<6 | uint64(bits.TrailingZeros64(word))
			ps[out] = Pair[V]{k, acc[k]}
			acc[k] = zero
			out++
		}
	}
	return out
}

// SortPairsInPlace sorts ps by Key ascending with an in-place American-flag
// byte radix (McIlroy/Bostic/McIlroy 1993), skipping all-zero high bytes
// (the paper's key-squeezing observation: small packed keys need few passes).
// It is not stable and needs no scratch plane: the sort of the callers that
// have none and fold with a commutative + (ESC baseline, COO conversion).
func SortPairsInPlace[V any](ps []Pair[V]) {
	if len(ps) < 2 {
		return
	}
	var or uint64
	for i := range ps {
		or |= ps[i].Key
	}
	if or == 0 {
		return
	}
	sortPairsAtByte(ps, (bits.Len64(or)-1)/8) // the top non-zero byte
}

// flagStatePairs is one byte pass's bucket bookkeeping.
type flagStatePairs struct {
	count, start, end [256]int
	nonEmpty          int
}

// flagPassPairs runs one complete American-flag byte pass — counting,
// prefix, and (unless the byte is uniform) the swap permute.
func flagPassPairs[V any](ps []Pair[V], byteIdx int, st *flagStatePairs) {
	shift := uint(byteIdx * 8)
	for i := range ps {
		st.count[(ps[i].Key>>shift)&0xff]++
	}
	sum := 0
	for b := 0; b < 256; b++ {
		st.start[b] = sum
		sum += st.count[b]
		st.end[b] = sum
		if st.count[b] > 0 {
			st.nonEmpty++
		}
	}
	if st.nonEmpty == 1 {
		return
	}
	var cursor [256]int
	copy(cursor[:], st.start[:])
	for b := 0; b < 256; b++ {
		for cursor[b] < st.end[b] {
			p := ps[cursor[b]]
			home := int((p.Key >> shift) & 0xff)
			if home == b {
				cursor[b]++
				continue
			}
			j := cursor[home]
			ps[cursor[b]], ps[j] = ps[j], p
			cursor[home]++
		}
	}
}

func sortPairsAtByte[V any](ps []Pair[V], byteIdx int) {
	n := len(ps)
	if n < 2 {
		return
	}
	if n <= insertionCutoff {
		insertionSortPairs(ps)
		return
	}
	var st flagStatePairs
	flagPassPairs(ps, byteIdx, &st)
	if st.nonEmpty == 1 {
		if byteIdx > 0 {
			sortPairsAtByte(ps, byteIdx-1)
		}
		return
	}
	if byteIdx == 0 {
		return
	}
	for b := 0; b < 256; b++ {
		if st.count[b] > 1 {
			sortPairsAtByte(ps[st.start[b]:st.end[b]], byteIdx-1)
		}
	}
}

func insertionSortPairs[V any](ps []Pair[V]) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].Key > p.Key {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// GrowPairs returns (*buf)[:n], reallocating only when capacity is short;
// contents are unspecified. It is the Pair counterpart of internal/matrix's
// grow-only helpers, shared by the pooled workspaces of internal/core and
// internal/baseline.
func GrowPairs[V any](buf *[]Pair[V], n int64) []Pair[V] {
	if int64(cap(*buf)) < n {
		*buf = make([]Pair[V], n)
	}
	*buf = (*buf)[:n]
	return *buf
}
