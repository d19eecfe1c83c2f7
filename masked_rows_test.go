package pbspgemm

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm/internal/par"
)

// bitIdentical reports whether two products agree in structure and in every
// value's bit pattern (so NaN equals NaN and −0.0 differs from 0.0).
func bitIdentical(a, b *CSR) bool {
	if !EqualWithin(a, b, math.Inf(1)) { // structure only
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestMultiplyMaskedBitIdenticalToReference: on real-valued inputs the row
// kernel sums every kept entry in ascending k, the order Reference uses, so
// C⟨M⟩ is Reference(A,B) ∘ M bit for bit — on every entry point and at every
// thread count (one worker folds a whole row).
func TestMultiplyMaskedBitIdenticalToReference(t *testing.T) {
	a, b, mask := NewRMAT(9, 8, 11), NewRMAT(9, 8, 12), NewRMAT(9, 12, 13)
	want := maskCSR(Reference(a, b), mask, false)
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 7} {
		got, err := MultiplyMasked(a, b, mask, WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(want, got) {
			t.Fatalf("%d threads: MultiplyMasked is not bit-identical to Reference ∘ mask", threads)
		}
		if got, err = eng.MultiplyMasked(context.Background(), a, b, mask, WithThreads(threads)); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(want, got) {
			t.Fatalf("%d threads: Engine.MultiplyMasked is not bit-identical to Reference ∘ mask", threads)
		}
		over, err := EngineMultiplyOver(eng, nil, Arithmetic(), Float64Matrix(a).ToCSC(), Float64Matrix(b),
			WithMask(mask), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(want, Float64CSR(over)) {
			t.Fatalf("%d threads: EngineMultiplyOver+WithMask is not bit-identical to Reference ∘ mask", threads)
		}
	}
}

// TestMultiplyMaskedSpecialValues pins the masked fold's semantics: the first
// product of an entry is assigned (so a lone −0.0 stays −0.0, where an
// accumulator started at +0.0 would return +0.0), NaN and ±Inf propagate, an
// entry that cancels to 0.0 is kept, and a mask position no product reaches
// is absent.
func TestMultiplyMaskedSpecialValues(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	// Row 0 of A·B, by column: 0 lone −0.0 · 1 = −0.0; 1 is 5 − 5 = 0; 2 is
	// NaN + 1; 3 is +Inf + 1; 4 is +Inf − Inf = NaN; 5 lone −Inf; 6 no product.
	a := &CSR{NumRows: 1, NumCols: 2, RowPtr: []int64{0, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1}}
	b := &CSR{NumRows: 2, NumCols: 7, RowPtr: []int64{0, 6, 10},
		ColIdx: []int32{0, 1, 2, 3, 4, 5, 1, 2, 3, 4},
		Val:    []float64{negZero, 5, math.NaN(), inf, inf, -inf, -5, 1, 1, -inf}}
	mask := &CSR{NumRows: 1, NumCols: 7, RowPtr: []int64{0, 7},
		ColIdx: []int32{0, 1, 2, 3, 4, 5, 6}, Val: make([]float64, 7)}
	c, err := MultiplyMasked(a, b, mask)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 6 || c.ColIdx[5] != 5 {
		t.Fatalf("kept columns %v, want 0..5 (column 6 has no contributing product)", c.ColIdx)
	}
	if !math.Signbit(c.Val[0]) || c.Val[0] != 0 {
		t.Fatalf("lone −0.0 became %v", c.Val[0])
	}
	if c.Val[1] != 0 || math.Signbit(c.Val[1]) {
		t.Fatalf("cancelled entry = %v, want a kept +0.0", c.Val[1])
	}
	if !math.IsNaN(c.Val[2]) || !math.IsInf(c.Val[3], 1) || !math.IsNaN(c.Val[4]) || !math.IsInf(c.Val[5], -1) {
		t.Fatalf("NaN/Inf fold = %v", c.Val[2:])
	}
}

// TestMaskedProductOwnership (run under -race): a masked product is the
// caller's alone — scribbling over it while the same engine, and so the same
// pooled workspace, runs the next masked call is no race and corrupts nothing.
func TestMaskedProductOwnership(t *testing.T) {
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	a, mask := NewRMAT(8, 8, 21), NewRMAT(8, 8, 22)
	first, err := eng.MultiplyMasked(context.Background(), a, a, mask)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range first.Val {
			first.Val[i], first.ColIdx[i] = -1, -1
		}
		clear(first.RowPtr)
	}()
	second, err := eng.MultiplyMasked(context.Background(), a, a, mask)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(want, second) {
		t.Fatal("second masked product was corrupted by writes to the first")
	}
}

// TestMaskedPanicContained: a user semiring whose Plus panics on a worker
// goroutine comes back as a *par.PanicError naming that worker, the workspace
// is discarded instead of pooled, and no worker outlives the call.
func TestMaskedPanicContained(t *testing.T) {
	const rows, poison = 8, 1e9
	dense := func(last float64) *CSR {
		m := &CSR{NumRows: rows, NumCols: rows, RowPtr: make([]int64, rows+1)}
		for r := int32(0); r < rows; r++ {
			for c := int32(0); c < rows; c++ {
				m.ColIdx = append(m.ColIdx, c)
				m.Val = append(m.Val, 1)
				if r == rows-1 {
					m.Val[len(m.Val)-1] = last
				}
			}
			m.RowPtr[r+1] = int64(len(m.Val))
		}
		return m
	}
	a, b := dense(poison), dense(1)
	sr := Semiring[float64]{Name: "panicking", Times: func(x, y float64) float64 { return x * y },
		Plus: func(x, y float64) float64 {
			if y == poison {
				panic("poisoned fold")
			}
			return x + y
		}}
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err = EngineMultiplyOver(eng, nil, sr, Float64Matrix(a).ToCSC(), Float64Matrix(b), WithMask(b))
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Worker < 0 {
		t.Fatalf("got %v, want a *par.PanicError from one of the two workers", err)
	}
	if m := eng.Metrics(); m.Panics != 1 || m.Failures != 1 {
		t.Fatalf("metrics %+v: the poisoned workspace must be discarded, not pooled", m)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	// The engine keeps serving on a fresh workspace.
	if _, err := eng.MultiplyMasked(context.Background(), b, b, b); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedCancelWithinOnePollBlock: a context cancelled mid-run stops the
// row kernel within one poll block — Cancel is polled at every 64th row — so
// at most one aligned 64-row block's hits are folded after the cancellation
// (counted in Times calls, one per hit).
func TestMaskedCancelWithinOnePollBlock(t *testing.T) {
	a := NewRMAT(12, 16, 31)  // 0.87 M hits in 64 poll blocks
	var block, maxBlock int64 // hits per aligned 64-row block, and the largest
	inMask := make([]bool, a.NumCols)
	for r := int32(0); r < a.NumRows; r++ {
		if r%64 == 0 {
			block = 0
		}
		row := a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]]
		for _, c := range row {
			inMask[c] = true
		}
		for _, k := range row {
			for _, c := range a.ColIdx[a.RowPtr[k]:a.RowPtr[k+1]] {
				if inMask[c] {
					block++
				}
			}
		}
		for _, c := range row {
			inMask[c] = false
		}
		maxBlock = max(maxBlock, block)
	}
	const cancelAt = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	sr := Semiring[float64]{Name: "cancelling", Plus: func(x, y float64) float64 { return x + y },
		Times: func(x, y float64) float64 {
			if calls.Add(1) == cancelAt {
				cancel()
			}
			return x * y
		}}
	eng, err := NewEngine(WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = EngineMultiplyOver(eng, ctx, sr, Float64Matrix(a).ToCSC(), Float64Matrix(a), WithMask(a))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if over := calls.Load() - cancelAt; over > maxBlock {
		t.Fatalf("%d folds after cancellation, the largest poll block has %d", over, maxBlock)
	}
	if m := eng.Metrics(); m.Panics != 0 || m.Failures != 1 {
		t.Fatalf("metrics %+v: a cancellation is a failure, not a panic", m)
	}
}
