package pbspgemm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm/internal/par"
)

// A custom semiring runs internal/core's pipeline on the wide layout, so it
// inherits the pipeline's containment and cancellation, pinned here from the
// public surface.

// TestSemiringPanicContained: a user ⊕ that panics on a worker goroutine of
// the sort phase comes back as a *par.PanicError naming that worker, counts
// as one panic in the engine's metrics, leaves no worker behind, and the
// workspace it ran on is discarded, not pooled: the engine's next product is
// right.
func TestSemiringPanicContained(t *testing.T) {
	const poison = 1e9
	a := NewRMAT(8, 8, 51)
	b := a.Clone()
	b.Val[len(b.Val)/2] = poison
	sr := Semiring[float64]{Name: "panicking", Times: func(x, y float64) float64 { return max(x, y) },
		Plus: func(x, y float64) float64 {
			if x == poison || y == poison {
				panic("poisoned fold")
			}
			return x + y
		}}
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	ac, bm := Float64Matrix(a).ToCSC(), Float64Matrix(b)
	before := runtime.NumGoroutine()
	_, err = EngineMultiplyOver(eng, nil, sr, ac, bm)
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Worker < 0 {
		t.Fatalf("got %v, want a *par.PanicError from one of the two workers", err)
	}
	if m := eng.Metrics(); m.Panics != 1 || m.Failures != 1 {
		t.Fatalf("metrics %+v: want one contained panic", m)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	want, err := MultiplyOver(PlusMax(), ac, Float64Matrix(a))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EngineMultiplyOver(eng, nil, PlusMax(), ac, Float64Matrix(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(Float64CSR(want), Float64CSR(got)) {
		t.Fatal("the product after a contained panic differs from a fresh engine's")
	}
}

// TestSemiringCancelWithinOnePollWindow: a context cancelled in the middle of
// a MinPlus product's expand stops it at the next sub-phase poll — every
// 64 Ki expanded tuples, checked between columns of A — not at the next phase
// boundary: at most one poll window and one column's outer product of ⊗ calls
// follow the cancellation, and the error names the phase.
func TestSemiringCancelWithinOnePollWindow(t *testing.T) {
	a := NewRMAT(10, 16, 52)
	ac := Float64Matrix(a).ToCSC()
	var flops, maxColumn int64
	for k := int32(0); k < a.NumRows; k++ {
		f := (ac.ColPtr[k+1] - ac.ColPtr[k]) * (a.RowPtr[k+1] - a.RowPtr[k])
		flops, maxColumn = flops+f, max(maxColumn, f)
	}
	const window = 64 << 10
	cancelAt := flops / 3
	if flops-cancelAt < 2*(window+maxColumn) {
		t.Fatalf("%d flops, largest column %d: too small to tell a poll from the product's end", flops, maxColumn)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	sr := MinPlus()
	times := sr.Times
	sr.Times = func(x, y float64) float64 {
		if calls.Add(1) == cancelAt {
			cancel()
		}
		return times(x, y)
	}
	eng, err := NewEngine(WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = EngineMultiplyOver(eng, ctx, sr, ac, Float64Matrix(a))
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "expand phase") {
		t.Fatalf("got %v, want context.Canceled wrapped with the expand phase", err)
	}
	if over := calls.Load() - cancelAt; over > window+maxColumn {
		t.Fatalf("%d products after the cancellation; a poll window is %d, the largest column %d", over, window, maxColumn)
	}
	if m := eng.Metrics(); m.Panics != 0 || m.Failures != 1 {
		t.Fatalf("metrics %+v: a cancellation is a failure, not a panic", m)
	}
}
