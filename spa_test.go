package pbspgemm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm/internal/matrix"
)

// sameBytes reports the first place two products differ, comparing value bits.
func sameBytes(x, y *CSR) error {
	if x.NumRows != y.NumRows || x.NumCols != y.NumCols || x.NNZ() != y.NNZ() {
		return fmt.Errorf("shape %dx%d/%d vs %dx%d/%d", x.NumRows, x.NumCols, x.NNZ(), y.NumRows, y.NumCols, y.NNZ())
	}
	for i, p := range x.RowPtr {
		if p != y.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d]: %d vs %d", i, p, y.RowPtr[i])
		}
	}
	for p, c := range x.ColIdx {
		if c != y.ColIdx[p] || math.Float64bits(x.Val[p]) != math.Float64bits(y.Val[p]) {
			return fmt.Errorf("entry %d: (%d, %x) vs (%d, %x)", p, c, math.Float64bits(x.Val[p]),
				y.ColIdx[p], math.Float64bits(y.Val[p]))
		}
	}
	return nil
}

// withSpecials overwrites every third value of m with NaN, ±Inf, ±0 in turn.
func withSpecials(m *CSR) *CSR {
	m = m.Clone()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for p := 0; p < len(m.Val); p += 3 {
		m.Val[p] = specials[p/3%len(specials)]
	}
	return m
}

// cancelPair is a product of ±0 chains and an exact cancellation, row-major:
// C(0,0) = 1·2 + (−1)·2 cancels to a stored +0, C(0,1) = (−0)·3 is a lone −0,
// C(0,2) = 1·1 + (−0)·1 = 1; C(1,0) = 0·2 = +0, C(1,1) = (−0)·3 + (−0)·3 stays
// −0, C(1,2) = 0·1 + (−0)·1 folds to +0.
func cancelPair() (a, b *CSR) {
	neg0 := math.Copysign(0, -1)
	a = (&matrix.COO{NumRows: 2, NumCols: 4,
		Row: []int32{0, 0, 0, 1, 1, 1}, Col: []int32{0, 1, 2, 2, 3, 0},
		Val: []float64{1, -1, neg0, neg0, neg0, 0}}).ToCSR()
	b = (&matrix.COO{NumRows: 4, NumCols: 3,
		Row: []int32{0, 1, 2, 2, 3, 0}, Col: []int32{0, 0, 1, 2, 1, 2},
		Val: []float64{2, 2, 3, 1, 3, 1}}).ToCSR()
	return a, b
}

// TestAutoBytesDoNotDependOnPick: PB (unbudgeted) and SPA both fold a C entry
// in ascending k with the first product assigned, so whichever of the two Auto
// picks, the product is the same bytes — which is what lets a serve cache entry
// computed under one pick stand in for the other. ER and R-MAT, real values and
// NaN / ±Inf / −0.0 / cancel-to-zero, threads {1, 2, 7}, pooled (an engine's
// second call) and fresh (a new engine's first call) workspaces.
func TestAutoBytesDoNotDependOnPick(t *testing.T) {
	rmat := NewRMAT(9, 8, 3)
	ca, cb := cancelPair()
	cases := []struct {
		name string
		a, b *CSR
	}{
		{"ER", NewER(300, 6, 1), NewER(300, 6, 2)},
		{"ER-highcf", NewER(128, 40, 3), NewER(128, 40, 4)},
		{"RMAT-squared", rmat, rmat},
		{"ER-specials", withSpecials(NewER(200, 8, 5)), withSpecials(NewER(200, 8, 6))},
		{"RMAT-specials", withSpecials(rmat), withSpecials(NewRMAT(9, 8, 7))},
		{"cancel-to-zero", ca, cb},
	}
	ctx := context.Background()
	for _, c := range cases {
		want := Reference(c.a, c.b)
		for _, threads := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/t%d", c.name, threads), func(t *testing.T) {
				eng, err := NewEngine(WithThreads(threads))
				if err != nil {
					t.Fatal(err)
				}
				var pooled [2]*Result
				for i, alg := range []Algorithm{PB, SPA} {
					for range 2 { // the second call runs on the first one's workspace
						if pooled[i], err = eng.Multiply(ctx, c.a, c.b, WithAlgorithm(alg)); err != nil {
							t.Fatal(err)
						}
					}
					fresh, err := multiply(c.a, c.b, WithAlgorithm(alg), WithThreads(threads))
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBytes(pooled[i].C, fresh.C); err != nil {
						t.Fatalf("%v: pooled and fresh workspaces disagree: %v", alg, err)
					}
					if err := pooled[i].C.Validate(); err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					if !EqualWithin(want, pooled[i].C, 1e-12) {
						t.Fatalf("%v differs from Reference", alg)
					}
				}
				if err := sameBytes(pooled[0].C, pooled[1].C); err != nil {
					t.Fatalf("SPA is not PB bit for bit: %v", err)
				}
			})
		}
	}
	// The hand-built pair, entry by entry: stored zeros are kept, signs survive.
	res, err := multiply(ca, cb, WithAlgorithm(SPA))
	if err != nil {
		t.Fatal(err)
	}
	neg0 := math.Float64bits(math.Copysign(0, -1))
	wantBits := []uint64{0, neg0, math.Float64bits(1), 0, neg0, 0}
	if res.C.NNZ() != int64(len(wantBits)) {
		t.Fatalf("cancel-to-zero product stores %d entries, want %d", res.C.NNZ(), len(wantBits))
	}
	for p, w := range wantBits {
		if got := math.Float64bits(res.C.Val[p]); got != w {
			t.Fatalf("entry %d = %x, want %x", p, got, w)
		}
	}
}

// TestSPASteadyStateAllocatesOnlyTheOutput: through the engine, a warmed-up SPA
// call allocates the product it hands over (exactly sized: no upper-bound
// arrays, no per-call staging) and, beyond it, only the result headers.
func TestSPASteadyStateAllocatesOnlyTheOutput(t *testing.T) {
	// One P, as testing.AllocsPerRun does: sync.Pool keeps a workspace per P, and
	// a goroutine that changes P between two calls warms up a second one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b := NewER(512, 48, 1), NewER(512, 48, 2)
	eng, err := NewEngine(WithThreads(1), WithAlgorithm(SPA))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := eng.Multiply(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil || res.Baseline.Symbolic != 0 || res.Baseline.Numeric <= 0 {
		t.Fatalf("SPA stats %+v: want one pass, Symbolic 0", res.Baseline)
	}
	output := uint64(res.C.NNZ()*12 + int64(len(res.C.RowPtr))*8)
	// The cheapest of a few calls: under -race sync.Pool drops a workspace now
	// and then, and the call after that warms a new one up.
	perCall, objs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 8 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := eng.Multiply(ctx, a, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		perCall, objs = min(perCall, m1.TotalAlloc-m0.TotalAlloc), min(objs, m1.Mallocs-m0.Mallocs)
	}
	if perCall < output || perCall > output+output/50+4096 {
		t.Fatalf("steady-state SPA call allocates %d B, the product is %d B", perCall, output)
	}
	if objs > 16 {
		t.Fatalf("steady-state SPA call makes %d allocations, want the three output arrays and a few headers", objs)
	}
}

// TestSemiringRejectsColumnKernels: a semiring or masked call naming a column
// kernel that has no form there gets *OptionError before any work runs — from
// the call's options or the engine's defaults — where it used to run PB
// silently; PB, SPA and Auto all run, to the same bytes.
func TestSemiringRejectsColumnKernels(t *testing.T) {
	a := NewER(96, 4, 1)
	ac, am := Float64Matrix(a).ToCSC(), Float64Matrix(a)
	ctx := context.Background()
	for _, alg := range []Algorithm{Heap, Hash, HashVec} {
		eng, err := NewEngine(WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		var oe *OptionError
		for what, call := range map[string]func() error{
			"MultiplyOver": func() error { _, err := MultiplyOver(MinPlus(), ac, am, WithAlgorithm(alg)); return err },
			"EngineMultiplyOver": func() error {
				_, err := EngineMultiplyOver(eng, ctx, Boolean(), MatrixOf(a, func(float64) bool { return true }).ToCSC(),
					MatrixOf(a, func(float64) bool { return true }))
				return err
			},
			"MultiplyMasked":        func() error { _, err := MultiplyMasked(a, a, a, WithAlgorithm(alg)); return err },
			"Engine.MultiplyMasked": func() error { _, err := eng.MultiplyMasked(ctx, a, a, a); return err },
		} {
			if err := call(); !errors.As(err, &oe) || oe.Option != "WithAlgorithm" {
				t.Fatalf("%s with %v: got %v, want *OptionError", what, alg, err)
			}
		}
		if m := eng.Metrics(); m.Calls != 0 {
			t.Fatalf("%v: rejected calls reached the metrics: %+v", alg, m)
		}
	}
	var want *Matrix[float64]
	for _, alg := range []Algorithm{PB, SPA, Auto} {
		got, err := MultiplyOver(MinPlus(), ac, am, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if err := sameBytes(Float64CSR(want), Float64CSR(got)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// trippingCtx is a context whose Err starts reporting Canceled at its trip-th
// call — a cancellation that lands at a chosen poll inside the product.
type trippingCtx struct {
	context.Context
	calls atomic.Int64
	trip  int64
}

func (c *trippingCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) >= c.trip {
		return context.Canceled
	}
	return nil
}

// TestSPACancelledMidProduct: a cancellation that lands on a poll in the middle
// of the row pass is returned within one poll window — each worker stops at its
// next row, nobody polls on to the end — and no worker goroutine is left.
func TestSPACancelledMidProduct(t *testing.T) {
	a, b := NewER(4096, 8, 1), NewER(4096, 8, 2) // 4096 rows: 64 polls of 64 rows
	for _, threads := range []int{1, 2, 4} {
		eng, err := NewEngine(WithThreads(threads), WithAlgorithm(SPA))
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		ctx := &trippingCtx{Context: context.Background(), trip: 12}
		if _, err := eng.Multiply(ctx, a, b); !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: got %v, want context.Canceled", threads, err)
		}
		if polls := ctx.calls.Load(); polls > ctx.trip+int64(threads) {
			t.Fatalf("threads=%d: %d polls after a cancellation at poll %d: workers ran on", threads, polls, ctx.trip)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("threads=%d: %d goroutines before, %d after a cancelled SPA", threads, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
		// The engine's workspace is reusable: the next call is the whole product.
		res, err := eng.Multiply(context.Background(), a, b)
		if err != nil || !EqualWithin(Reference(a, b), res.C, 1e-12) {
			t.Fatalf("threads=%d: call after a cancelled one: err %v", threads, err)
		}
	}
}

// TestColumnKernelBytesDoNotDependOnThreads: Heap, Hash and HashVec each give
// the same bytes at 1, 2 and 7 threads — real values, NaN / ±Inf / −0.0 and
// cancel-to-zero included — so a thread count, like a memory budget, never
// changes a product (serve's cache key leaves it out).
func TestColumnKernelBytesDoNotDependOnThreads(t *testing.T) {
	rmat := NewRMAT(9, 8, 3)
	ca, cb := cancelPair()
	cases := []struct {
		name string
		a, b *CSR
	}{
		{"ER", NewER(300, 6, 1), NewER(300, 6, 2)},
		{"ER-highcf", NewER(128, 40, 3), NewER(128, 40, 4)},
		{"RMAT-squared", rmat, rmat},
		{"ER-specials", withSpecials(NewER(200, 8, 5)), withSpecials(NewER(200, 8, 6))},
		{"RMAT-specials", withSpecials(rmat), withSpecials(NewRMAT(9, 8, 7))},
		{"cancel-to-zero", ca, cb},
	}
	for _, c := range cases {
		for _, alg := range []Algorithm{Heap, Hash, HashVec} {
			one, err := multiply(c.a, c.b, WithAlgorithm(alg), WithThreads(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 7} {
				res, err := multiply(c.a, c.b, WithAlgorithm(alg), WithThreads(threads))
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBytes(one.C, res.C); err != nil {
					t.Fatalf("%s, %v: %d threads differ from 1: %v", c.name, alg, threads, err)
				}
			}
		}
	}
}
