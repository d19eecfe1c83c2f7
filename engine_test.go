package pbspgemm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbspgemm/internal/matrix"
)

// maskCSR is the test oracle for masked products: keep entries of c whose
// position is (not) stored in mask.
func maskCSR(c, mask *CSR, complement bool) *CSR {
	out := &CSR{NumRows: c.NumRows, NumCols: c.NumCols, RowPtr: make([]int64, c.NumRows+1)}
	for i := int32(0); i < c.NumRows; i++ {
		mp, mEnd := mask.RowPtr[i], mask.RowPtr[i+1]
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			col := c.ColIdx[p]
			for mp < mEnd && mask.ColIdx[mp] < col {
				mp++
			}
			stored := mp < mEnd && mask.ColIdx[mp] == col
			if stored != complement {
				out.ColIdx = append(out.ColIdx, col)
				out.Val = append(out.Val, c.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.Val))
	}
	return out
}

func TestEngineConcurrentMultiply(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	// Distinct shapes per worker so pooled workspaces are exercised across
	// sizes; every result is checked against the reference oracle.
	type job struct{ a, b, want *CSR }
	jobs := make([]job, 4)
	for i := range jobs {
		a := NewER(int32(128+64*i), 5, uint64(2*i+1))
		b := NewER(int32(128+64*i), 5, uint64(2*i+2))
		jobs[i] = job{a, b, Reference(a, b)}
	}
	const workers, reps = 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			for r := 0; r < reps; r++ {
				res, err := eng.Multiply(context.Background(), j.a, j.b)
				if err != nil {
					errc <- err
					return
				}
				if !EqualWithin(j.want, res.C, 1e-9) {
					errc <- errors.New("concurrent result differs from reference")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Calls != workers*reps || m.Failures != 0 {
		t.Fatalf("metrics: %d calls (%d failures), want %d (0)", m.Calls, m.Failures, workers*reps)
	}
	if m.Flops <= 0 || m.BytesMoved <= 0 || m.NNZProduced <= 0 || m.Busy <= 0 {
		t.Fatalf("metrics counters not populated: %+v", m)
	}
}

func TestEngineResultsDetachedFromPool(t *testing.T) {
	// A result must survive later calls that reuse the pooled workspace.
	eng, err := NewEngine(WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	a := NewER(256, 5, 1)
	b := NewER(256, 5, 2)
	first, err := eng.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := first.C.Clone()
	for i := 0; i < 3; i++ {
		c := NewER(256, 7, uint64(10+i))
		if _, err := eng.Multiply(context.Background(), c, c); err != nil {
			t.Fatal(err)
		}
	}
	if !EqualWithin(keep, first.C, 0) {
		t.Fatal("result was clobbered by later engine calls")
	}
}

func TestEngineContextCancellation(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := NewER(1024, 8, 1)
	b := NewER(1024, 8, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the call must fail before any phase runs
	if _, err := eng.Multiply(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled multiply returned %v, want context.Canceled", err)
	}
	if _, err := eng.MultiplyMasked(ctx, a, b, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled masked multiply returned %v, want context.Canceled", err)
	}
	if _, err := EngineMultiplyOver(eng, ctx, Boolean(),
		MatrixOf(a, func(float64) bool { return true }).ToCSC(),
		MatrixOf(b, func(float64) bool { return true })); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled generic multiply returned %v, want context.Canceled", err)
	}
	if _, err := MultiplyOver(MinPlus(), Float64Matrix(a).ToCSC(), Float64Matrix(b),
		WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("WithContext(canceled) generic multiply returned %v, want context.Canceled", err)
	}
	// Baseline kernels poll at phase boundaries too.
	for _, alg := range []Algorithm{Heap, Hash, HashVec, SPA} {
		if _, err := eng.Multiply(ctx, a, b, WithAlgorithm(alg)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled %v multiply returned %v, want context.Canceled", alg, err)
		}
	}
	if m := eng.Metrics(); m.Failures != 7 {
		t.Fatalf("failures = %d, want 7", m.Failures)
	}
}

// TestWithSemiringPlanReporting: the public option surfaces the typed
// fast-path dispatch — Boolean rides the 4-byte pattern layout, while a
// semiring with no typed kernel reports a reasoned generic fallback.
func TestWithSemiringPlanReporting(t *testing.T) {
	a := NewER(256, 4, 1)
	b := NewER(256, 4, 2)
	var p SemiringPlan
	if _, err := MultiplyOver(Boolean(),
		MatrixOf(a, func(float64) bool { return true }).ToCSC(),
		MatrixOf(b, func(float64) bool { return true }),
		WithSemiringPlan(&p)); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != LayoutPattern {
		t.Fatalf("boolean plan = %+v, want pattern fast path", p)
	}
	if _, err := MultiplyOver(MinPlus(), Float64Matrix(a).ToCSC(), Float64Matrix(b),
		WithSemiringPlan(&p)); err != nil {
		t.Fatal(err)
	}
	if p.FastPath || p.Reason == "" {
		t.Fatalf("min-plus plan = %+v, want reasoned fallback", p)
	}
}

// TestEngineDeadlineExceededEndToEnd pins the wrapped-cancellation contract
// at the public surface: a deadline that lands mid-run must surface from
// Engine.Multiply as an error for which errors.Is(err, context.DeadlineExceeded)
// holds, through the phase-annotating wrap the core layer applies.
func TestEngineDeadlineExceededEndToEnd(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := NewER(8192, 24, 11)
	b := NewER(8192, 24, 12)
	for _, budget := range []int64{0, 1 << 20} {
		// 5ms is far under this product's runtime, so the deadline lands
		// inside a phase; if a slow machine burns it before the run starts,
		// the fail-fast path returns the same sentinel and the assertion
		// still holds.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err = eng.Multiply(ctx, a, b, WithMemoryBudget(budget))
		cancel()
		if err == nil {
			t.Fatalf("budget=%d: multiply outran a 5ms deadline on a ~5M-flop product", budget)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("budget=%d: errors.Is(err, DeadlineExceeded) = false; err = %v", budget, err)
		}
	}
	if m := eng.Metrics(); m.Panics != 0 {
		t.Fatalf("cancellation counted as a panic: %+v", m)
	}
}

func TestEngineCancellationNoGoroutineLeak(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := NewER(2048, 8, 3)
	b := NewER(2048, 8, 4)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		// A tiny memory budget forces many bin groups, i.e. many cancellation
		// checkpoints; the deadline lands mid-run on all but the fastest
		// machines. Either outcome (prompt error or completed product) is
		// fine — the invariant is that no worker goroutine outlives the call.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, _ = eng.Multiply(ctx, a, b, WithMemoryBudget(1<<14))
		cancel()
		// Baseline kernels observe the same deadline at their symbolic and
		// numeric phase boundaries; their workers must not outlive the call
		// either.
		for _, alg := range []Algorithm{Hash, Heap} {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
			_, _ = eng.Multiply(ctx, a, b, WithAlgorithm(alg))
			cancel()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // give exited goroutines a moment to be reaped
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled multiplies",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMultiplyMaskedMatchesReference(t *testing.T) {
	a := NewER(512, 6, 5)
	b := NewER(512, 6, 6)
	mask := NewER(512, 9, 7)
	want := Reference(a, b)

	got, err := MultiplyMasked(a, b, mask)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(maskCSR(want, mask, false), got, 1e-9) {
		t.Fatal("masked product differs from reference ∘ mask")
	}

	comp, err := MultiplyMasked(a, b, mask, WithComplementMask(mask))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(maskCSR(want, mask, true), comp, 1e-9) {
		t.Fatal("complement-masked product differs from reference \\ mask")
	}
	if got.NNZ()+comp.NNZ() != want.NNZ() {
		t.Fatalf("mask split %d + %d != product nnz %d", got.NNZ(), comp.NNZ(), want.NNZ())
	}

	// The budgeted path (bin groups) must give the same bytes.
	budgeted, err := MultiplyMasked(a, b, mask, WithMemoryBudget(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(got, budgeted, 0) {
		t.Fatal("budgeted masked product differs from single-shot")
	}

	// Engine path with the mask as a per-call option.
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Multiply(context.Background(), a, b, WithMask(mask))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(got, res.C, 1e-9) {
		t.Fatal("engine WithMask product differs from MultiplyMasked")
	}
}

func TestMultiplyMaskedShapeErrors(t *testing.T) {
	a := NewER(64, 3, 1)
	badMask := NewER(32, 3, 2)
	if _, err := MultiplyMasked(a, a, badMask); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("mis-shaped mask returned %v, want ErrShape", err)
	}
	b := NewER(32, 3, 3)
	if _, err := MultiplyMasked(a, b, a); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("mis-shaped operands returned %v, want ErrShape", err)
	}
	// A nil mask is rejected rather than silently returning the unmasked
	// product.
	if _, err := MultiplyMasked(a, a, nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("nil mask returned %v, want ErrInvalidOption", err)
	}
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MultiplyMasked(context.Background(), a, a, nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("engine nil mask returned %v, want ErrInvalidOption", err)
	}
	if _, err := eng.MultiplyMasked(context.Background(), a, a, badMask); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("engine mis-shaped mask returned %v, want ErrShape", err)
	}
	// None of the rejections above were dispatched, so no metrics moved.
	if m := eng.Metrics(); m.Calls != 0 || m.Failures != 0 {
		t.Fatalf("validation rejections leaked into metrics: %+v", m)
	}
	// WithMask(nil) clears an engine-default mask, restoring the unmasked
	// product.
	defEng, err := NewEngine(WithMask(a))
	if err != nil {
		t.Fatal(err)
	}
	res, err := defEng.Multiply(context.Background(), a, a, WithMask(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(Reference(a, a), res.C, 1e-9) {
		t.Fatal("WithMask(nil) did not clear the default mask")
	}
}

func TestMultiplyMaskedPrecedence(t *testing.T) {
	// Explicit mask argument outranks an engine-default mask; a per-call
	// option outranks both.
	a := NewER(128, 4, 1)
	x := NewER(128, 2, 2)
	y := NewER(128, 3, 3)
	want := Reference(a, a)
	wantX := maskCSR(want, x, false)
	wantY := maskCSR(want, y, false)

	eng, err := NewEngine(WithMask(x))
	if err != nil {
		t.Fatal(err)
	}
	viaArg, err := eng.MultiplyMasked(context.Background(), a, a, y)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(wantY, viaArg, 1e-9) {
		t.Fatal("explicit mask argument did not override the engine default")
	}
	viaOpt, err := eng.MultiplyMasked(context.Background(), a, a, y, WithMask(x))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(wantX, viaOpt, 1e-9) {
		t.Fatal("per-call option did not override the explicit mask argument")
	}
	pkg, err := MultiplyMasked(a, a, y, WithMask(x))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(wantX, pkg, 1e-9) {
		t.Fatal("package-level precedence differs from the engine method")
	}
	// A mis-shaped mask arriving via WithMask on the plain Multiply path is
	// rejected before dispatch and stays out of the metrics.
	before := eng.Metrics().Calls
	if _, err := eng.Multiply(context.Background(), a, a, WithMask(NewER(64, 2, 4))); err == nil {
		t.Fatal("mis-shaped WithMask not rejected")
	}
	if eng.Metrics().Calls != before {
		t.Fatal("pre-dispatch mask rejection leaked into metrics")
	}
}

func TestEWiseAddAndMult(t *testing.T) {
	a := NewER(256, 4, 11)
	b := NewER(256, 4, 12)
	ga, gb := Float64Matrix(a), Float64Matrix(b)

	sum, err := EWiseAdd(Arithmetic(), ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := EWiseMult(Arithmetic(), ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	// Dense oracle: union adds, intersection multiplies.
	dense := func(m *CSR) map[[2]int32]float64 {
		d := map[[2]int32]float64{}
		for i := int32(0); i < m.NumRows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				d[[2]int32{i, m.ColIdx[p]}] = m.Val[p]
			}
		}
		return d
	}
	da, db := dense(a), dense(b)
	dsum, dprod := dense(Float64CSR(sum)), dense(Float64CSR(prod))
	for k, v := range da {
		if w, ok := db[k]; ok {
			if dsum[k] != v+w {
				t.Fatalf("eWiseAdd at %v: %v, want %v", k, dsum[k], v+w)
			}
			if dprod[k] != v*w {
				t.Fatalf("eWiseMult at %v: %v, want %v", k, dprod[k], v*w)
			}
		} else if dsum[k] != v {
			t.Fatalf("eWiseAdd missing a-only entry %v", k)
		}
	}
	union, inter := 0, 0
	for k := range db {
		if _, ok := da[k]; ok {
			inter++
		}
	}
	union = len(da) + len(db) - inter
	if int(sum.NNZ()) != union || int(prod.NNZ()) != inter {
		t.Fatalf("supports: add %d (want %d), mult %d (want %d)",
			sum.NNZ(), union, prod.NNZ(), inter)
	}
	if _, err := EWiseAdd(Arithmetic(), ga, Float64Matrix(NewER(128, 2, 1))); !errors.Is(err, matrix.ErrShape) {
		t.Fatal("eWiseAdd shape mismatch not rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	a := NewER(64, 3, 1)
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"WithThreads":       WithThreads(-1),
		"WithNBins":         WithNBins(-2),
		"WithLocalBinBytes": WithLocalBinBytes(-3),
		"WithL2CacheBytes":  WithL2CacheBytes(-4),
		"WithMemoryBudget":  WithMemoryBudget(-5),
		"WithAlgorithm":     WithAlgorithm(Algorithm(99)),
	} {
		_, err := eng.Multiply(context.Background(), a, a, opt)
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: got %v, want *OptionError", name, err)
		}
		if !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("%s: error does not match ErrInvalidOption", name)
		}
		if _, err := NewEngine(opt); err == nil {
			t.Fatalf("NewEngine accepted invalid default %s", name)
		}
	}
	// Zero values stay valid (auto defaults).
	if _, err := eng.Multiply(context.Background(), a, a,
		WithThreads(0), WithNBins(0), WithMemoryBudget(0)); err != nil {
		t.Fatalf("zero-valued options rejected: %v", err)
	}
}
