package pbspgemm

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"pbspgemm/internal/matrix"
)

// plannerEngine returns an engine with opts as its defaults. The planner
// measures nothing about the box, so the picks below are the same on every
// machine.
func plannerEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestFirstPlanMeasuresNothing: the planner measures nothing about the
// machine, so the first Engine.Plan of a process allocates what its symbolic
// pass and nnz(C) estimate need, not a bandwidth benchmark's arrays. It is a
// first-call test when run alone:
//
//	go test -run TestFirstPlanMeasuresNothing -count=1 .
func TestFirstPlanMeasuresNothing(t *testing.T) {
	a, b := NewER(1<<10, 8, 1), NewER(1<<10, 8, 2)
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := eng.Plan(context.Background(), a, b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if p.Flops == 0 {
		t.Fatal("empty product planned: the test would not reach the model")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("first Engine.Plan allocated %d bytes, want under 1 MiB", got)
	}
}

// lowCFFixture is on PB's side of the fitted crossover: a hypersparse ER pair
// with cf ≈ 1 whose B (1.5 MB) is past the 1 MiB cache budget, so the row kernel
// would miss on a row of B for a third of A's entries — costlier than PB's sort
// (roofline.SPACostNS). Its 256 Kflop are planned from a sample of an eighth.
func lowCFFixture() (*CSR, *CSR) {
	return NewER(1<<16, 2, 1), NewER(1<<16, 2, 2)
}

// highCFFixture is on SPA's side: a small dense-ish ER square with cf ≈ 20,
// accumulator and B both cache-resident.
func highCFFixture() (*CSR, *CSR) {
	return NewER(192, 64, 3), NewER(192, 64, 4)
}

func TestAutoSelectsPBAtLowCF(t *testing.T) {
	eng := plannerEngine(t)
	a, b := lowCFFixture()
	res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Auto call returned no Plan")
	}
	if res.Plan.Chosen != PB || res.Algorithm != PB {
		t.Fatalf("low-cf fixture chose %v (plan %v), want PB", res.Algorithm, res.Plan.Chosen)
	}
	if res.Plan.CF > 2 {
		t.Fatalf("fixture cf = %v, expected ≈ 1", res.Plan.CF)
	}
	if res.Plan.PredictedOuterGFLOPS < res.Plan.PredictedColumnGFLOPS {
		t.Fatal("plan contradicts its own predictions")
	}
	if !EqualWithin(Reference(a, b), res.C, 1e-9) {
		t.Fatal("Auto result differs from reference")
	}
}

func TestAutoSelectsColumnKernelAtHighCF(t *testing.T) {
	eng := plannerEngine(t)
	a, b := highCFFixture()
	res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Auto call returned no Plan")
	}
	if res.Plan.Chosen != SPA || res.Algorithm != SPA {
		t.Fatalf("high-cf fixture chose %v (plan %v), want SPA", res.Algorithm, res.Plan.Chosen)
	}
	if res.Plan.CF < 4 || res.Plan.PredictedColumnGFLOPS <= res.Plan.PredictedOuterGFLOPS {
		t.Fatalf("fixture cf = %v, predictions %v (PB) vs %v (SPA): expected a high-cf product the model gives SPA",
			res.Plan.CF, res.Plan.PredictedOuterGFLOPS, res.Plan.PredictedColumnGFLOPS)
	}
	if !EqualWithin(Reference(a, b), res.C, 1e-9) {
		t.Fatal("Auto result differs from reference")
	}
}

// TestAutoBitIdenticalToChosenKernel: an Auto run must produce exactly the
// bytes the chosen kernel produces when selected explicitly — the planner
// adds a decision, never a different computation.
func TestAutoBitIdenticalToChosenKernel(t *testing.T) {
	eng := plannerEngine(t, WithThreads(2))
	for _, fixture := range []func() (*CSR, *CSR){lowCFFixture, highCFFixture} {
		a, b := fixture()
		auto, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(auto.Plan.Chosen))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(auto.C, direct.C, 0) {
			t.Fatalf("Auto output is not bit-identical to %v run directly", auto.Plan.Chosen)
		}
		if direct.Plan != nil {
			t.Fatal("explicit algorithm selection must not report a Plan")
		}
	}
}

// TestAutoPlanFields: the model inputs exposed on Plan are populated and
// self-consistent.
func TestAutoPlanFields(t *testing.T) {
	eng := plannerEngine(t)
	a, b := lowCFFixture()
	res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p.Flops != Flops(a, b) {
		t.Fatalf("plan flops %d, want %d", p.Flops, Flops(a, b))
	}
	if p.NNZA != a.NNZ() || p.NNZB != b.NNZ() {
		t.Fatal("plan input sizes wrong")
	}
	if p.PredictedOuterGFLOPS <= 0 || p.PredictedColumnGFLOPS <= 0 {
		t.Fatalf("plan model outputs not populated: %+v", p)
	}
	// PB runs the squeezed layout, so the planner prices its tuples at 12
	// bytes — and the executed PB run must report that layout on its stats.
	if out := (int64(a.NumRows)+1)*8 + p.EstNNZC*12; p.Chosen != PB || p.PredictedFootprintBytes != p.Flops*12+out {
		t.Fatalf("plan chose %v with a %d-byte footprint, want PB at 12 B a tuple (%d)",
			p.Chosen, p.PredictedFootprintBytes, p.Flops*12+out)
	}
	if res.PB == nil || res.PB.Layout != LayoutSqueezed || res.PB.TupleBytes != 12 {
		t.Fatalf("executed PB stats do not report the squeezed layout: %+v", res.PB)
	}
	// The engine runs the fused pipeline, so the executed run must report
	// the fuse phase on its stats.
	if res.PB.Fuse <= 0 || res.PB.FusedBytes <= 0 {
		t.Fatalf("executed PB stats do not report the fused phase: %+v", res.PB)
	}
	// lowCFFixture's 256 Kflop are sampled; ER 2¹²·d2's 16 are counted.
	if res, err = eng.Multiply(context.Background(), NewER(1<<12, 2, 1), NewER(1<<12, 2, 2), WithAlgorithm(Auto)); err != nil {
		t.Fatal(err)
	}
	p = res.Plan
	// This fixture is small enough for the exact symbolic pass.
	if p.Sampled {
		t.Fatal("small fixture should use the exact nnz(C) pass")
	}
	if p.EstNNZC != res.C.NNZ() {
		t.Fatalf("exact plan nnzC %d, product has %d", p.EstNNZC, res.C.NNZ())
	}
}

// TestPlanSamplesAShareOfTheProduct: the planner's nnz(C) estimate visits at
// most max(32 Ki, flops/8) products, and counts a product of at most 32 Ki
// flops exactly (ER 2¹³·d2 is 32 Ki flops on the nose).
func TestPlanSamplesAShareOfTheProduct(t *testing.T) {
	eng := plannerEngine(t)
	for _, tc := range []struct {
		n int32
		d int
	}{{1 << 12, 2}, {1 << 13, 2}, {1 << 13, 4}, {1 << 12, 8}, {1 << 16, 2}, {1 << 14, 16}} {
		a, b := NewER(tc.n, tc.d, 1), NewER(tc.n, tc.d, 2)
		flops := Flops(a, b)
		if _, visited := matrix.EstimateProductNNZ(a, b, flops, sampleFlops(flops), nil); visited > max(32<<10, flops/8) {
			t.Errorf("ER %d·d%d: the estimate visited %d of %d products, want at most max(32 Ki, flops/8)", tc.n, tc.d, visited, flops)
		}
		p, err := eng.Plan(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if exact := flops <= 32<<10; p.Sampled == exact || exact && p.EstNNZC != matrix.ProductNNZ(a, b) {
			t.Errorf("ER %d·d%d, %d flops: sampled %v, estimate %d of %d", tc.n, tc.d, flops, p.Sampled, p.EstNNZC, matrix.ProductNNZ(a, b))
		}
	}
}

// TestPlanHonorsWithAlgorithm: Engine.Plan prices the kernel a WithAlgorithm
// option names. On ER 1024·d128 (cf ≈ 16) Auto picks SPA, whose footprint is
// about the output; pinned to PB the plan is PB's, whose expansion is 12
// bytes a flop, and pinned to SPA it is SPA's. With no option naming one it
// is Auto's pick.
func TestPlanHonorsWithAlgorithm(t *testing.T) {
	eng := plannerEngine(t)
	a, b := NewER(1024, 128, 5), NewER(1024, 128, 6)
	ctx := context.Background()
	auto, err := eng.Plan(ctx, a, b, WithAlgorithm(Auto))
	if err != nil {
		t.Fatal(err)
	}
	if unnamed, err := eng.Plan(ctx, a, b); err != nil || *unnamed != *auto {
		t.Fatalf("a plan naming no algorithm is %+v (%v), want Auto's %+v", unnamed, err, auto)
	}
	pb, err := eng.Plan(ctx, a, b, WithAlgorithm(PB))
	if err != nil {
		t.Fatal(err)
	}
	spa, err := eng.Plan(ctx, a, b, WithAlgorithm(SPA))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Chosen != SPA || spa.Chosen != SPA || spa.PredictedFootprintBytes != auto.PredictedFootprintBytes {
		t.Fatalf("Auto planned %v (%d B), SPA %v (%d B); want SPA for both, alike",
			auto.Chosen, auto.PredictedFootprintBytes, spa.Chosen, spa.PredictedFootprintBytes)
	}
	if pb.Chosen != PB || pb.PredictedFootprintBytes < pb.Flops*12 {
		t.Fatalf("PB planned %v with a %d-byte footprint, want PB with at least %d", pb.Chosen,
			pb.PredictedFootprintBytes, pb.Flops*12)
	}
	// An engine whose default is PB plans PB without a per-call option.
	def := plannerEngine(t, WithAlgorithm(PB))
	if p, err := def.Plan(ctx, a, b); err != nil || p.Chosen != PB || p.PredictedFootprintBytes != pb.PredictedFootprintBytes {
		t.Fatalf("PB-default engine planned %+v (%v), want the pinned PB plan", p, err)
	}
}

// TestPlanPricesPlainMaskAsRowKernel: with a plain mask Engine.Plan prices
// the row-wise masked accumulator the call will run — nnz(C) capped by nnz(M),
// a footprint of the output plus mask-shaped scratch, no flops × tupleBytes
// term — while the unmasked and complement-masked plans stay as they were.
func TestPlanPricesPlainMaskAsRowKernel(t *testing.T) {
	eng := plannerEngine(t)
	a, mask := NewRMAT(9, 8, 5), NewER(512, 2, 6)
	ctx := context.Background()
	full, err := eng.Plan(ctx, a, a)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := eng.Plan(ctx, a, a, WithMask(mask), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if masked.Flops != full.Flops || masked.EstNNZC != mask.NNZ() || masked.Chosen != PB {
		t.Fatalf("masked plan %+v: want the product's flops, nnz(M) = %d as the nnz(C) cap, PB bucket", masked, mask.NNZ())
	}
	want := (512+1)*8 + mask.NNZ()*12 + mask.NNZ()*9 + 4*512*2
	if masked.PredictedFootprintBytes != want || want >= full.Flops*12 {
		t.Fatalf("masked footprint %d, want %d (well under the %d-byte expansion)",
			masked.PredictedFootprintBytes, want, full.Flops*12)
	}
	compl, err := eng.Plan(ctx, a, a, WithComplementMask(mask))
	if err != nil {
		t.Fatal(err)
	}
	if *compl != *full {
		t.Fatalf("complement-masked plan %+v differs from the unmasked plan %+v", compl, full)
	}
}

// TestEngineMetricsByAlgorithm: the per-algorithm breakdown advances for
// baseline kernels dispatched through the engine, and Auto calls are
// attributed to the chosen kernel with AutoChosen.
func TestEngineMetricsByAlgorithm(t *testing.T) {
	eng := plannerEngine(t)
	a, b := lowCFFixture()
	ctx := context.Background()
	if _, err := eng.Multiply(ctx, a, b, WithAlgorithm(Hash)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Multiply(ctx, a, b, WithAlgorithm(Hash)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Multiply(ctx, a, b, WithAlgorithm(Auto)); err != nil {
		t.Fatal(err) // low-cf: planner picks PB
	}
	m := eng.Metrics()
	hash := m.ByAlgorithm[Hash]
	if hash.Calls != 2 || hash.Failures != 0 {
		t.Fatalf("hash calls %d (%d failures), want 2 (0)", hash.Calls, hash.Failures)
	}
	wantFlops := 2 * Flops(a, b)
	if hash.Flops != wantFlops {
		t.Fatalf("hash flops %d, want %d", hash.Flops, wantFlops)
	}
	if hash.NNZProduced <= 0 || hash.Busy <= 0 {
		t.Fatalf("hash counters not populated: %+v", hash)
	}
	pb := m.ByAlgorithm[PB]
	if pb.Calls != 1 || pb.AutoChosen != 1 {
		t.Fatalf("pb calls %d autoChosen %d, want 1 and 1", pb.Calls, pb.AutoChosen)
	}
	if hash.AutoChosen != 0 {
		t.Fatal("explicit hash calls must not count as planner-chosen")
	}
	if m.Calls != 3 {
		t.Fatalf("total calls %d, want 3", m.Calls)
	}
}

// TestEngineMultiplyOverCountsAutoPicks: a semiring call under Auto counts as
// an Auto pick under the kernel the planner chose — PB as well as SPA, as on
// Engine.Multiply — and a pinned one does not.
func TestEngineMultiplyOverCountsAutoPicks(t *testing.T) {
	eng := plannerEngine(t)
	a, b := lowCFFixture()
	ac, br := Float64Matrix(a).ToCSC(), Float64Matrix(b)
	var p SemiringPlan
	for _, alg := range []Algorithm{Auto, PB} {
		if _, err := EngineMultiplyOver(eng, context.Background(), Arithmetic(), ac, br,
			WithAlgorithm(alg), WithSemiringPlan(&p)); err != nil {
			t.Fatal(err)
		}
		if p.Rows {
			t.Fatalf("%v: the low-cf fixture ran the row kernel, want PB", alg)
		}
	}
	if pb := eng.Metrics().ByAlgorithm[PB]; pb.Calls != 2 || pb.AutoChosen != 1 {
		t.Fatalf("pb calls %d autoChosen %d, want 2 and 1", pb.Calls, pb.AutoChosen)
	}
}

// TestWithAlgorithmValidation: Auto is a valid WithAlgorithm value, and one
// past it is rejected like every out-of-range option.
func TestWithAlgorithmValidation(t *testing.T) {
	a := NewER(64, 3, 1)
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Multiply(context.Background(), a, a, WithAlgorithm(Auto+1)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("WithAlgorithm(Auto+1) returned %v, want ErrInvalidOption", err)
	}
	if err := WithAlgorithm(Auto)(&config{}); err != nil {
		t.Fatalf("WithAlgorithm(Auto) rejected: %v", err)
	}
}
