package semiring

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// maskedSeed encodes one FuzzMaskedRowsVsReference input: a 3-byte shape header
// (each dimension is byte%24+1), then 4 bytes per entry — which matrix
// (0 A, 1 B, 2 mask), row, column, value.
func maskedSeed(rows, inner, cols byte, entries ...[4]byte) []byte {
	data := []byte{rows - 1, inner - 1, cols - 1}
	for _, e := range entries {
		data = append(data, e[:]...)
	}
	return data
}

// checkMaskedRows holds the row kernel's masked form — on fresh buffers and on
// a pooled workspace — to referenceOver, exactly, at 1, 2 and 7 threads.
func checkMaskedRows[T comparable](t *testing.T, sr Semiring[T], a, b, mask *matrix.CSR,
	lift func(float64) T, ws *core.Workspace) {

	t.Helper()
	ar, br := FromCSR(a, lift), FromCSR(b, lift)
	ac := ar.ToCSC()
	want := referenceOver(sr, ar, br, mask, false)
	for _, threads := range []int{1, 2, 7} {
		for _, pool := range []*core.Workspace{nil, ws} {
			var p Plan
			got, err := MultiplyOpts(sr, ac, br, Options{Threads: threads, Mask: mask, Workspace: pool, Plan: &p})
			if err != nil {
				t.Fatal(err)
			}
			if p.FastPath || !p.Rows || p.Reason == "" {
				t.Fatalf("%s: plain mask plan = %+v, want the row kernel named in Reason", sr.Name, p)
			}
			sameAsReference(t, fmt.Sprintf("%s, %d threads, pooled %v", sr.Name, threads, pool != nil), got, want, equal[T])
		}
	}
}

// FuzzMaskedRowsVsReference: for every stock semiring and random plain masks
// on integer-valued inputs (every fold order is exact), the row-wise masked
// accumulator equals referenceOver.
func FuzzMaskedRowsVsReference(f *testing.F) {
	const A, B, M = 0, 1, 2
	// An empty mask over a non-empty product.
	f.Add(maskedSeed(4, 4, 4, [4]byte{A, 0, 1, 2}, [4]byte{A, 2, 1, 3}, [4]byte{B, 1, 0, 4}, [4]byte{B, 1, 3, 5}))
	// Empty mask rows under non-empty product rows (only row 0 is masked in),
	// and mask entries the product never reaches: (0,2), and all of row 3.
	f.Add(maskedSeed(4, 4, 4, [4]byte{A, 0, 1, 2}, [4]byte{A, 2, 1, 3}, [4]byte{A, 1, 0, 1}, [4]byte{B, 1, 0, 4},
		[4]byte{B, 1, 3, 5}, [4]byte{B, 0, 0, 6}, [4]byte{M, 0, 0, 1}, [4]byte{M, 0, 2, 1}, [4]byte{M, 3, 1, 1}))
	// 1×n · n×1: one entry folded from every k.
	f.Add(maskedSeed(1, 6, 1, [4]byte{A, 0, 0, 1}, [4]byte{A, 0, 2, 2}, [4]byte{A, 0, 5, 3},
		[4]byte{B, 0, 0, 4}, [4]byte{B, 2, 0, 5}, [4]byte{B, 5, 0, 6}, [4]byte{M, 0, 0, 1}))
	// A single dense mask row over a rectangular product (3×7 · 7×5).
	f.Add(maskedSeed(3, 7, 5, [4]byte{A, 1, 0, 1}, [4]byte{A, 1, 6, 2}, [4]byte{A, 2, 3, 3}, [4]byte{A, 0, 3, 3},
		[4]byte{B, 0, 0, 4}, [4]byte{B, 0, 4, 5}, [4]byte{B, 6, 4, 6}, [4]byte{B, 6, 2, 0}, [4]byte{B, 3, 1, 2},
		[4]byte{M, 1, 0, 1}, [4]byte{M, 1, 1, 1}, [4]byte{M, 1, 2, 1}, [4]byte{M, 1, 3, 1}, [4]byte{M, 1, 4, 1}))
	f.Add([]byte{23, 23, 23, 0, 1, 2, 3, 1, 2, 3, 4, 2, 1, 3, 5, 0, 1, 1, 6, 1, 1, 3, 7, 2, 1, 1, 8, 0, 9, 2, 1, 1, 2, 9, 3, 2, 9, 9, 1})

	ws := core.NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dims := [3]int32{int32(data[0]%24) + 1, int32(data[1]%24) + 1, int32(data[2]%24) + 1}
		coo := [3]*matrix.COO{
			{NumRows: dims[0], NumCols: dims[1]}, // A
			{NumRows: dims[1], NumCols: dims[2]}, // B
			{NumRows: dims[0], NumCols: dims[2]}, // mask
		}
		for i := 3; i+3 < len(data); i += 4 {
			m := coo[data[i]%3]
			m.Row = append(m.Row, int32(data[i+1])%m.NumRows)
			m.Col = append(m.Col, int32(data[i+2])%m.NumCols)
			m.Val = append(m.Val, float64(data[i+3]%7)+1)
		}
		a, b, mask := coo[0].ToCSR(), coo[1].ToCSR(), coo[2].ToCSR()

		id := func(v float64) float64 { return v }
		checkMaskedRows(t, Arithmetic(), a, b, mask, id, ws)
		checkMaskedRows(t, Arithmetic32(), a, b, mask, func(v float64) float32 { return float32(v) }, ws)
		checkMaskedRows(t, ArithmeticInt32(), a, b, mask, func(v float64) int32 { return int32(v) }, ws)
		checkMaskedRows(t, Boolean(), a, b, mask, func(v float64) bool { return v > 2 }, ws)
		checkMaskedRows(t, MinPlus(), a, b, mask, id, ws)
		checkMaskedRows(t, MaxTimes(), a, b, mask, id, ws)
		checkMaskedRows(t, PlusMax(), a, b, mask, id, ws)
	})
}

// TestMaskedRowsPollsAtEmptyMaskRows: the poll schedule counts every row, so
// an already-cancelled call fails even when the rows that carry the polls
// (every 64th, row 0 first) have empty mask rows. One worker: a second would
// poll at row 1, whose mask row is not empty.
func TestMaskedRowsPollsAtEmptyMaskRows(t *testing.T) {
	id := &CSRg[float64]{NumRows: 2, NumCols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1}}
	mask := &matrix.CSR{NumRows: 2, NumCols: 2, RowPtr: []int64{0, 0, 1}, ColIdx: []int32{1}, Val: []float64{1}}
	stop := errors.New("stop")
	var polls atomic.Int64 // every row-kernel worker polls
	cancel := func() error {
		if polls.Add(1) > 1 { // the first poll is the call's own, at entry
			return stop
		}
		return nil
	}
	if _, err := MultiplyOpts(Arithmetic(), id.ToCSC(), id, Options{Mask: mask, Cancel: cancel, Threads: 1}); !errors.Is(err, stop) {
		t.Fatalf("got %v, want the Cancel error", err)
	}
}

// rowsAlways sends every unmasked product to the row kernel.
func rowsAlways(*matrix.CSR, *matrix.CSR, int64) bool { return true }

// TestRowKernelMatchesReference: the seven stock semirings (and the typed
// (+, ×) once more with its functions wrapped, through the generic loop) × {no mask,
// plain mask} × threads {1, 2, 7}, on fresh buffers and pooled, through the row
// kernel, bit for bit against referenceOver — on integer-valued inputs and on
// inputs of mixed magnitude, where the result shows the order of the fold.
func TestRowKernelMatchesReference(t *testing.T) {
	ws := core.NewWorkspace()
	id := func(v float64) float64 { return v }
	run := func(a, b, mask *matrix.CSR, real bool) {
		rowTable(t, Arithmetic(), a, b, mask, id, sameBits, ws)
		rowTable(t, opaque(Arithmetic()), a, b, mask, id, sameBits, ws)
		rowTable(t, MinPlus(), a, b, mask, id, sameBits, ws)
		rowTable(t, MaxTimes(), a, b, mask, id, sameBits, ws)
		rowTable(t, PlusMax(), a, b, mask, id, sameBits, ws)
		if real {
			return
		}
		rowTable(t, Arithmetic32(), a, b, mask, func(v float64) float32 { return float32(v) }, equal[float32], ws)
		rowTable(t, ArithmeticInt32(), a, b, mask, func(v float64) int32 { return int32(v) }, equal[int32], ws)
		rowTable(t, Boolean(), a, b, mask, func(float64) bool { return true }, equal[bool], ws)
		rowTable(t, Boolean(), a, b, mask, func(v float64) bool { return v > 2 }, equal[bool], ws)
	}
	// cols(B) = 160: rows of A reach both sides of the 20-product line between
	// the bitmap and the byte marks.
	run(intCSR(gen.ER(160, 6, 41)), intCSR(gen.ER(160, 6, 42)), gen.ER(160, 40, 43), false)
	a, b, mask := gen.ER(48, 14, 44), gen.ER(48, 14, 45), gen.ER(48, 12, 46)
	for i := range a.Val {
		a.Val[i] = (float64(i%13) - 4.75) * math.Pow(10, float64(i%5))
		b.Val[i%len(b.Val)] = (float64(i%7) + 1.3) * 30011
	}
	run(a, b, mask, true)
}

// rowTable multiplies a·b over sr through the row kernel, unmasked and under a
// plain mask, at 1, 2 and 7 threads, fresh and on ws, and holds every product to
// referenceOver.
func rowTable[T any](t *testing.T, sr Semiring[T], a, b, mask *matrix.CSR, lift func(float64) T,
	eq func(a, b T) bool, ws *core.Workspace) {

	t.Helper()
	ar, br := FromCSR(a, lift), FromCSR(b, lift)
	ac := ar.ToCSC()
	for _, m := range []*matrix.CSR{nil, mask} {
		want := referenceOver(sr, ar, br, m, false)
		for _, threads := range []int{1, 2, 7} {
			for _, pool := range []*core.Workspace{nil, ws} {
				what := fmt.Sprintf("%s, mask %v, %d threads, pooled %v", sr.Name, m != nil, threads, pool != nil)
				var p Plan
				got, err := MultiplyOpts(sr, ac, br, Options{Threads: threads, Workspace: pool, Mask: m, Rows: rowsAlways, Plan: &p})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !p.Rows || p.Stats != nil {
					t.Fatalf("%s: plan %+v, want the row kernel", what, p)
				}
				sameAsReference(t, what, got, want, eq)
			}
		}
	}
}

// TestRowKernelDenseSparseLine: rows of exactly cols(B)/8 products — the first
// that mark with bytes — and one product either side, with a −0.0 first product,
// a sum that cancels to +0 and a NaN in every one: both accumulator loops, typed
// (+, ×) and generic, give PB's bytes.
func TestRowKernelDenseSparseLine(t *testing.T) {
	const cols = 128 // 16 products make a dense row
	neg0 := math.Copysign(0, -1)
	// B row k holds one entry, in column k%4 (so products collide) for k < 40,
	// in column 4+k otherwise; B's values: −0.0, then 2, −2, NaN, 1.5, …
	bco := &matrix.COO{NumRows: 64, NumCols: cols}
	for k := int32(0); k < 64; k++ {
		c := k % 4
		if k >= 40 {
			c = 4 + k
		}
		v := []float64{neg0, 2, -2, math.NaN(), 1.5}[k%5]
		bco.Row, bco.Col, bco.Val = append(bco.Row, k), append(bco.Col, c), append(bco.Val, v)
	}
	// Row r of A has 15 + r%3 entries (15, 16, 17 products), row 3 one.
	aco := &matrix.COO{NumRows: 9, NumCols: 64}
	for r := int32(0); r < 9; r++ {
		n := 15 + r%3
		if r == 3 {
			n = 1
		}
		for e := int32(0); e < n; e++ {
			aco.Row, aco.Col, aco.Val = append(aco.Row, r), append(aco.Col, (r*5+e*3)%64), append(aco.Val, 1)
		}
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	ar, br := FromCSR(a, func(v float64) float64 { return v }), FromCSR(b, func(v float64) float64 { return v })
	ac := ar.ToCSC()
	pb, err := MultiplyOpts(Arithmetic(), ac, br, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(t, "PB", pb, referenceOver(Arithmetic(), ar, br, nil, false), sameBits)
	for _, sr := range []Semiring[float64]{Arithmetic(), opaque(Arithmetic())} {
		for _, threads := range []int{1, 3} {
			got, err := MultiplyOpts(sr, ac, br, Options{Threads: threads, Rows: rowsAlways})
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, fmt.Sprintf("%s, %d threads", sr.Name, threads), got, pb, sameBits)
		}
	}
}
