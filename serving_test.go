package pbspgemm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEngineConcurrentMixedLayoutLoad drives one shared Engine the way the
// serving layer does: many goroutines issuing products over different value
// types and tuple layouts at once — float64 arithmetic (12/16-byte tuples),
// boolean structure (4-byte pattern), float32 (8-byte narrow), min-plus
// generic, and masked products — while some requests are canceled mid-flight.
// Every completed product must match its single-threaded reference, every
// canceled one must fail with the ctx error, and no worker goroutine may
// outlive the run.
func TestEngineConcurrentMixedLayoutLoad(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := NewER(512, 6, 21)
	b := NewER(512, 6, 22)
	mask := NewER(512, 4, 23)
	ref := Reference(a, b)
	refNNZ := ref.NNZ()

	boolA := MatrixOf(a, func(float64) bool { return true }).ToCSC()
	boolB := MatrixOf(b, func(float64) bool { return true })
	f32A := MatrixOf(a, func(v float64) float32 { return float32(v) }).ToCSC()
	f32B := MatrixOf(b, func(v float64) float32 { return float32(v) })
	mpA := Float64Matrix(a).ToCSC()
	mpB := Float64Matrix(b)

	// One workload per layout family; index selects which one a goroutine runs.
	workloads := []func(ctx context.Context) error{
		func(ctx context.Context) error { // wide/squeezed float64 tuples
			c, err := eng.Multiply(ctx, a, b)
			if err != nil {
				return err
			}
			if !EqualWithin(ref, c.C, 1e-9) {
				t.Error("arithmetic product differs from reference")
			}
			return nil
		},
		func(ctx context.Context) error { // 4-byte pattern tuples
			c, err := EngineMultiplyOver(eng, ctx, Boolean(), boolA, boolB)
			if err != nil {
				return err
			}
			if got := int64(len(c.ColIdx)); got != refNNZ {
				t.Errorf("boolean nnz = %d, want %d", got, refNNZ)
			}
			return nil
		},
		func(ctx context.Context) error { // 8-byte narrow tuples
			c, err := EngineMultiplyOver(eng, ctx, Arithmetic32(), f32A, f32B)
			if err != nil {
				return err
			}
			if got := int64(len(c.ColIdx)); got != refNNZ {
				t.Errorf("float32 nnz = %d, want %d", got, refNNZ)
			}
			return nil
		},
		func(ctx context.Context) error { // generic fallback path
			c, err := EngineMultiplyOver(eng, ctx, MinPlus(), mpA, mpB)
			if err != nil {
				return err
			}
			if got := int64(len(c.ColIdx)); got != refNNZ {
				t.Errorf("min-plus nnz = %d, want %d", got, refNNZ)
			}
			return nil
		},
		func(ctx context.Context) error { // masked product
			c, err := eng.MultiplyMasked(ctx, a, b, mask)
			if err != nil {
				return err
			}
			if c.NNZ() > refNNZ {
				t.Errorf("masked nnz %d exceeds unmasked %d", c.NNZ(), refNNZ)
			}
			return nil
		},
	}

	before := runtime.NumGoroutine()
	const goroutines = 20
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				work := workloads[(i+round)%len(workloads)]
				// Every third request gets a deadline that lands mid-flight
				// on most machines; either outcome is fine, but a failure
				// must be the ctx error, not corruption.
				if (i+round)%3 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
					if err := work(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("canceled request failed with %v", err)
					}
					cancel()
				} else if err := work(context.Background()); err != nil {
					t.Errorf("request failed: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()

	m := eng.Metrics()
	if m.Calls == 0 {
		t.Fatal("engine recorded no calls")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after mixed load",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
