package radix

import "math"

// The wide layout's stable sort family, on whole-byte digits. Each splitting
// pass is a STABLE counting scatter ping-ponging between the tuple buffer and
// a caller-provided scratch plane, so equal keys keep their arrival (expand)
// order at every level; that is what makes the wide layout's fused, unfused
// and split-across-workers paths bit-identical at any thread count, exactly
// as the key32 kernels are. The in-place SortPairsInPlace of pairs.go serves
// the callers that have no scratch plane (ESC baseline, format conversion).

// SortPairsStable stably sorts ps by Key. aux must be at least len(ps); its
// contents are clobbered.
func SortPairsStable(ps []Pair, aux []Pair) {
	n := len(ps)
	if n < 2 {
		return
	}
	or := orPairs(ps)
	if or == 0 {
		return
	}
	stableSortPairs(ps, aux[:n], topByte(or), true)
}

// SortPairsAtByteStable continues a partitioned bucket whose keys agree on
// all bytes above byteIdx.
func SortPairsAtByteStable(ps []Pair, aux []Pair, byteIdx int) {
	n := len(ps)
	if n < 2 || byteIdx < 0 {
		return
	}
	stableSortPairs(ps, aux[:n], byteIdx, true)
}

func stableSortPairs(src []Pair, alt []Pair, byteIdx int, inOrig bool) {
	n := len(src)
	for {
		if n <= 1 {
			if n == 1 && !inOrig {
				alt[0] = src[0]
			}
			return
		}
		if byteIdx < 0 {
			if !inOrig {
				copy(alt, src)
			}
			return
		}
		if n <= insertionCutoff {
			if inOrig {
				insertionSortPairs(src)
			} else {
				insertionIntoPairs(src, alt)
			}
			return
		}
		shift := uint(byteIdx * 8)
		var count [maxBuckets]int64
		histPairs(src, shift, &count)
		nonEmpty := 0
		var start [maxBuckets]int64
		sum := int64(0)
		for b := 0; b < maxBuckets; b++ {
			start[b] = sum
			sum += count[b]
			if count[b] > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 1 {
			byteIdx--
			continue
		}
		cursor := start
		scatterPairs(src, alt, shift, &cursor)
		if byteIdx == 0 {
			if inOrig {
				copy(src, alt)
			}
			return
		}
		for b := 0; b < maxBuckets; b++ {
			c := count[b]
			if c == 0 {
				continue
			}
			s := start[b]
			switch c {
			case 1:
				if inOrig {
					src[s] = alt[s]
				}
			case 2:
				s2 := s + 1
				if alt[s].Key > alt[s2].Key {
					if inOrig {
						src[s], src[s2] = alt[s2], alt[s]
					} else {
						alt[s], alt[s2] = alt[s2], alt[s]
					}
				} else if inOrig {
					src[s], src[s2] = alt[s], alt[s2]
				}
			default:
				stableSortPairs(alt[s:s+c], src[s:s+c], byteIdx-1, !inOrig)
			}
		}
		return
	}
}

func insertionIntoPairs(src []Pair, dst []Pair) {
	for i := 0; i < len(src); i++ {
		p := src[i]
		j := i
		for j > 0 && dst[j-1].Key > p.Key {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = p
	}
}

// PartitionPairsScratch is the stable splitting pass for oversized wide
// bins: one scatter through aux with copy-back, bounds filled with the 256
// byte-bucket starts (bounds[256] = len). Zero nbuckets means fully sorted.
func PartitionPairsScratch(ps []Pair, aux []Pair, bounds []int64) (nbuckets, nextByte int) {
	n := len(ps)
	if n < 2 {
		return 0, 0
	}
	or := orPairs(ps)
	if or == 0 {
		return 0, 0
	}
	byteIdx := topByte(or)
	aux = aux[:n]
	for {
		if byteIdx < 0 {
			return 0, 0
		}
		shift := uint(byteIdx * 8)
		var count [maxBuckets]int64
		histPairs(ps, shift, &count)
		nonEmpty := 0
		var start [maxBuckets]int64
		sum := int64(0)
		for b := 0; b < maxBuckets; b++ {
			start[b] = sum
			sum += count[b]
			if count[b] > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 1 {
			byteIdx--
			continue
		}
		cursor := start
		scatterPairs(ps, aux, shift, &cursor)
		copy(ps, aux)
		for b := 0; b < maxBuckets; b++ {
			bounds[b] = start[b]
		}
		bounds[maxBuckets] = int64(n)
		if byteIdx == 0 {
			return 0, 0
		}
		return maxBuckets, byteIdx - 1
	}
}

// fusePairsS is the stable fused sort+fold for the wide layout.
type fusePairsS struct {
	ps []Pair
	n  int64
}

// SortPairsFusedScratch stably sorts and folds ps in one pass, returning
// the folded tuple count. aux must be at least len(ps).
func SortPairsFusedScratch(ps []Pair, aux []Pair) int64 {
	n := len(ps)
	if n == 0 {
		return 0
	}
	or := orPairs(ps)
	if or == 0 {
		v := ps[0].Val
		for i := 1; i < n; i++ {
			v += ps[i].Val
		}
		ps[0].Val = v
		return 1
	}
	f := fusePairsS{ps: ps}
	f.sort(ps, aux[:n], topByte(or))
	return f.n
}

func (f *fusePairsS) emitOne(p Pair) {
	f.ps[f.n] = p
	f.n++
}

func (f *fusePairsS) sort(src []Pair, alt []Pair, byteIdx int) {
	n := len(src)
	if n == 0 {
		return
	}
	if n == 1 {
		f.emitOne(src[0])
		return
	}
	if byteIdx < 0 {
		p := src[0]
		for i := 1; i < n; i++ {
			p.Val += src[i].Val
		}
		f.emitOne(p)
		return
	}
	if n <= insertionCutoff {
		f.insertionFold(src)
		return
	}
	shift := uint(byteIdx * 8)
	var count [maxBuckets]int64
	histPairs(src, shift, &count)
	nonEmpty := 0
	var start [maxBuckets]int64
	sum := int64(0)
	for b := 0; b < maxBuckets; b++ {
		start[b] = sum
		sum += count[b]
		if count[b] > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 1 {
		f.sort(src, alt, byteIdx-1)
		return
	}
	if byteIdx == 0 {
		// Last byte: sequential accumulate in arrival order, then emit
		// per occupied bucket. Reads all of src before any emit.
		acc := negZeros
		accumPairs(src, &acc)
		base := src[0].Key &^ 0xff
		out := f.n
		for b := 0; b < maxBuckets; b++ {
			if count[b] > 0 {
				f.ps[out] = Pair{Key: base | uint64(b), Val: acc[b]}
				out++
			}
		}
		f.n = out
		return
	}
	cursor := start
	scatterPairs(src, alt, shift, &cursor)
	for b := 0; b < maxBuckets; b++ {
		c := count[b]
		if c == 0 {
			continue
		}
		s := start[b]
		switch c {
		case 1:
			f.emitOne(alt[s])
		case 2:
			p0, p1 := alt[s], alt[s+1]
			switch {
			case p0.Key == p1.Key:
				f.emitOne(Pair{Key: p0.Key, Val: p0.Val + p1.Val})
			case p0.Key < p1.Key:
				f.emitOne(p0)
				f.emitOne(p1)
			default:
				f.emitOne(p1)
				f.emitOne(p0)
			}
		default:
			f.sort(alt[s:s+c], src[s:s+c], byteIdx-1)
		}
	}
}

// negZeros is the accumulator the last byte pass starts from. −0 is the exact
// identity of IEEE addition (−0 + x = x for every x, −0 included), so summing
// a bucket from it is the chain every other fold runs — first value assigned,
// later ones added — where summing from +0 would turn a group of −0 products
// into +0.
var negZeros = func() (acc [maxBuckets]float64) {
	for b := range acc {
		acc[b] = math.Copysign(0, -1)
	}
	return acc
}()

func (f *fusePairsS) insertionFold(src []Pair) {
	ps := f.ps
	base := f.n
	out := base
	for i := 0; i < len(src); i++ {
		p := src[i]
		j := out
		for j > base && ps[j-1].Key > p.Key {
			j--
		}
		if j > base && ps[j-1].Key == p.Key {
			ps[j-1].Val += p.Val
			continue
		}
		for m := out; m > j; m-- {
			ps[m] = ps[m-1]
		}
		ps[j] = p
		out++
	}
	f.n = out
}
