package radix

import "math/bits"

// Pair is one COO entry as SortPairsInPlace sorts it: a packed (rowid, colid)
// key of up to 64 bits and the value, adjacent, so a pass moves one element.
type Pair[V any] struct {
	Key uint64
	Val V
}

// SortPairsInPlace sorts ps by Key ascending with an in-place American-flag
// byte radix (McIlroy/Bostic/McIlroy 1993), skipping all-zero high bytes
// (the paper's key-squeezing observation: small packed keys need few passes).
// It is not stable and needs no scratch plane: COO.ToCSR's sort, which folds
// duplicates with a commutative +.
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
