package semiring

import (
	"errors"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
)

// maskedSeed encodes one FuzzMaskedRowsVsGeneric input: a 3-byte shape header
// (each dimension is byte%24+1), then 4 bytes per entry — which matrix
// (0 A, 1 B, 2 mask), row, column, value.
func maskedSeed(rows, inner, cols byte, entries ...[4]byte) []byte {
	data := []byte{rows - 1, inner - 1, cols - 1}
	for _, e := range entries {
		data = append(data, e[:]...)
	}
	return data
}

// checkMaskedRows holds the row kernel — called with A by rows, and through
// MultiplyOpts' dispatch with A by columns on a pooled workspace — to the
// tuple pipeline's post-fold mask filter (itself held to referenceOver),
// exactly, at 1, 2 and 7 threads.
func checkMaskedRows[T comparable](t *testing.T, sr Semiring[T], a, b, mask *matrix.CSR,
	lift func(float64) T, ws *core.Workspace) {

	t.Helper()
	ar, br := FromCSR(a, lift), FromCSR(b, lift)
	ac := ar.ToCSC()
	want, _, err := multiplyGeneric(sr, ac, br, Options{Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(t, sr.Name+", post-fold filter", want, referenceOver(sr, ar, br, mask, false), equal[T])
	same := func(got *CSRg[T], how string, threads int) {
		t.Helper()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s, %s, %d threads: %v", sr.Name, how, threads, err)
		}
		if !sameStructureG(want, got) {
			t.Fatalf("%s, %s, %d threads: structure differs from the generic engine's filter", sr.Name, how, threads)
		}
		for i := range got.Val {
			if got.Val[i] != want.Val[i] {
				t.Fatalf("%s, %s, %d threads: value[%d] = %v, generic %v", sr.Name, how, threads, i, got.Val[i], want.Val[i])
			}
		}
	}
	for _, threads := range []int{1, 2, 7} {
		got, err := MultiplyMaskedRows(sr, ar, br, Options{Threads: threads, Mask: mask})
		if err != nil {
			t.Fatal(err)
		}
		same(got, "A by rows", threads)
		var p Plan
		got, err = MultiplyOpts(sr, ac, br, Options{Threads: threads, Mask: mask, Workspace: ws, Plan: &p})
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPath || p.Reason == "" {
			t.Fatalf("%s: plain mask plan = %+v, want the row kernel named in Reason", sr.Name, p)
		}
		same(got, "A by columns, pooled", threads)
	}
}

// FuzzMaskedRowsVsGeneric: for every stock semiring and random plain masks on
// integer-valued inputs (every fold order is exact), the row-wise masked
// accumulator equals the wide layout's expand-sort-fold-filter, and both equal
// referenceOver.
func FuzzMaskedRowsVsGeneric(f *testing.F) {
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
// (every 64th, row 0 first) have empty mask rows.
func TestMaskedRowsPollsAtEmptyMaskRows(t *testing.T) {
	id := &CSRg[float64]{NumRows: 2, NumCols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1}}
	mask := &matrix.CSR{NumRows: 2, NumCols: 2, RowPtr: []int64{0, 0, 1}, ColIdx: []int32{1}, Val: []float64{1}}
	stop := errors.New("stop")
	if _, err := MultiplyMaskedRows(Arithmetic(), id, id, Options{Mask: mask, Cancel: func() error { return stop }}); !errors.Is(err, stop) {
		t.Fatalf("got %v, want the Cancel error", err)
	}
}
