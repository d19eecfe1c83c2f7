package matrix_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// splitmix is a SplitMix64 stream: the inputs below are the same on every
// platform and Go release.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// exact overwrites m's values with ±(26-bit odd integer)·2^e, e in [-40, -21]:
// any product of two of them is exact in float64, so a fused multiply-add
// (GOAMD64=v3) cannot change a sum, while the wide spread of exponents makes
// every sum of several products depend on the order it is added in.
func exact(m *matrix.CSR, seed uint64) *matrix.CSR {
	s := splitmix(seed)
	for p := range m.Val {
		h := s.next()
		v := math.Ldexp(float64(h&(1<<26-1)|1), -40+int(h>>26%20))
		if h>>63 == 1 {
			v = -v
		}
		m.Val[p] = v
	}
	return m
}

// randomCSR is a rows×cols matrix of about nnz entries at uniform positions
// (duplicates summed by ToCSR), with exact values; keep(i, k) filters positions.
func randomCSR(rows, cols int32, nnz int, seed uint64, keep func(i, k int32) bool) *matrix.CSR {
	s := splitmix(seed)
	coo := &matrix.COO{NumRows: rows, NumCols: cols}
	for e := 0; e < nnz; e++ {
		i, k := int32(s.next()%uint64(rows)), int32(s.next()%uint64(cols))
		if keep == nil || keep(i, k) {
			coo.Row, coo.Col, coo.Val = append(coo.Row, i), append(coo.Col, k), append(coo.Val, 0)
		}
	}
	return exact(coo.ToCSR(), seed)
}

// specialValues multiplies NaN, ±Inf, ±0 and finite values. Each entry's NaNs
// share one bit pattern, so the sum's NaN does not depend on which operand an
// addition keeps. C(1,2) sums only −0 products and is +0; C(2,2) sums to 0 and
// is stored.
func specialValues() (a, b *matrix.CSR) {
	nan, inf, nz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	a = &matrix.CSR{NumRows: 3, NumCols: 4, RowPtr: []int64{0, 4, 7, 11},
		ColIdx: []int32{0, 1, 2, 3, 0, 1, 3, 0, 1, 2, 3},
		Val:    []float64{nan, 1, nz, 2, nz, inf, nz, 0, -inf, 3, -3}}
	b = &matrix.CSR{NumRows: 4, NumCols: 3, RowPtr: []int64{0, 2, 4, 6, 8},
		ColIdx: []int32{0, 2, 0, 1, 1, 2, 0, 2},
		Val:    []float64{1, 2, inf, -1, nz, 4, -inf, 4}}
	return a, b
}

// nonCanonical is an A whose row 0 is unsorted and whose row 1 stores column 2
// twice, times a B with rows dense enough that every output entry folds several
// products.
func nonCanonical() (a, b *matrix.CSR) {
	a = &matrix.CSR{NumRows: 3, NumCols: 5, RowPtr: []int64{0, 3, 6, 8},
		ColIdx: []int32{3, 1, 4, 2, 0, 2, 0, 4}, Val: make([]float64, 8)}
	return exact(a, 41), randomCSR(5, 12, 40, 42, nil)
}

// TestReferenceGolden pins ReferenceMultiply's output bytes — RowPtr, ColIdx
// and the bits of every value, NaN payloads and signed zeros included — on
// inputs whose sums are order-sensitive. A change that adds an entry's
// products in any other order than A's row storage order, that skips the +0
// start, or that reorders or drops entries changes a hash.
func TestReferenceGolden(t *testing.T) {
	cases := []struct {
		name string
		ab   func() (a, b *matrix.CSR)
		want string
	}{
		{"er_2^10_d8", func() (a, b *matrix.CSR) {
			return exact(gen.ERMatrix(10, 8, 1), 1), exact(gen.ERMatrix(10, 8, 2), 2)
		}, "10c2c08f13adf4b18ff0d701ecb9ad06b40241359fd243a1a0fdd59bb5deecbb"},
		{"rmat_10_16_squared", func() (a, b *matrix.CSR) {
			m := exact(gen.RMAT(10, 16, gen.Graph500Params, 3), 3)
			return m, m
		}, "c5a88df2ec30ad72a649b2959ddfab890191394fad5bb616b311ccca09810929"},
		{"rectangular_b_2^20_cols", func() (a, b *matrix.CSR) {
			return randomCSR(300, 500, 3000, 4, nil), randomCSR(500, 1<<20, 8000, 5, nil)
		}, "1f4e5c425924d0ad6bba78820ef33d9a188d344b448ccbd89e11315b2cbe02df"},
		{"empty_rows_and_cols", func() (a, b *matrix.CSR) {
			a = randomCSR(96, 80, 900, 6, func(i, k int32) bool { return i%3 != 0 && k%4 != 1 })
			return a, randomCSR(80, 70, 700, 7, nil)
		}, "abeb4ade4bd19cbf96ea739af0537dd321001a0fbce6b3cc1e03a2f2315b9b18"},
		{"nnz_0", func() (a, b *matrix.CSR) {
			return randomCSR(6, 9, 0, 8, nil), randomCSR(9, 7, 20, 9, nil)
		}, "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb"},
		{"1xn_nx1", func() (a, b *matrix.CSR) {
			return randomCSR(1, 4096, 1500, 10, nil), randomCSR(4096, 1, 1500, 11, nil)
		}, "3e9cc294b534a84ef5c2fcafe8eaec763a5f3f25972289682566c7477ff9a6b1"},
		{"special_values", specialValues,
			"ca260e66d146430f1a062edfee6e0eb67c85dfd8ea2695cace46d7c3dd547d4e"},
		{"non_canonical_a", nonCanonical,
			"df31fa38c897b827e8f14c67fafa573f000ec0f380ef7ca7e2bfd1ad06c8bf5a"},
	}
	for _, tc := range cases {
		a, b := tc.ab()
		c := matrix.ReferenceMultiply(a, b)
		h := sha256.New()
		h.Write(matrix.AsBytes(c.RowPtr))
		h.Write(matrix.AsBytes(c.ColIdx))
		h.Write(matrix.AsBytes(c.Val))
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s (nnz %d)", tc.name, got, tc.want, c.NNZ())
		}
	}
	a, b := specialValues()
	c := matrix.ReferenceMultiply(a, b)
	if v := c.Val[c.RowPtr[1]+2]; c.ColIdx[c.RowPtr[1]+2] != 2 || math.Float64bits(v) != 0 {
		t.Errorf("all-(−0) C(1,2) = %v (bits %#x), want +0", v, math.Float64bits(v))
	}
}

// TestReferenceWideColumns: the oracle's memory follows the stored entries, not
// cols(B). B has 2^31−1 columns with entries at both ends; an accumulator sized
// by cols(B) would allocate 16 GiB.
func TestReferenceWideColumns(t *testing.T) {
	const last = math.MaxInt32 - 1
	a := &matrix.CSR{NumRows: 3, NumCols: 4, RowPtr: []int64{0, 2, 2, 5},
		ColIdx: []int32{0, 3, 1, 2, 3}, Val: []float64{2, 3, 5, 7, 11}}
	b := &matrix.CSR{NumRows: 4, NumCols: math.MaxInt32, RowPtr: []int64{0, 2, 3, 5, 7},
		ColIdx: []int32{0, last, last - 1, 1, last, 0, last},
		Val:    []float64{1, 2, 3, 4, 5, 6, 7}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := matrix.ReferenceMultiply(a, b)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("allocated %d bytes for a 6-entry product, want under 1 MiB", got)
	}
	want := &matrix.CSR{NumRows: 3, NumCols: math.MaxInt32, RowPtr: []int64{0, 2, 2, 6},
		ColIdx: []int32{0, last, 0, 1, last - 1, last},
		Val:    []float64{2 + 3*6, 2*2 + 3*7, 11 * 6, 7 * 4, 5 * 3, 7*5 + 11*7}}
	if err := c.Validate(); err != nil || !matrix.Equal(c, want, 0) {
		t.Fatalf("got %+v (%v), want %+v", c, err, want)
	}
}
