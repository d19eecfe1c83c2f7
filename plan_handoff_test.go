package pbspgemm

import (
	"context"
	"testing"
)

// otherKernel is the kernel of Auto's pair that p did not choose.
func otherKernel(p *Plan) Algorithm {
	if p.Chosen == PB {
		return SPA
	}
	return PB
}

// TestMultiplyRunsAHandedPlan: Multiply under Auto with WithPlan(Engine.Plan's
// plan) runs that plan: the bytes Auto gives on its own, the plan itself as
// Result.Plan, and the call counted as an Auto pick.
func TestMultiplyRunsAHandedPlan(t *testing.T) {
	ctx := context.Background()
	for _, fixture := range []func() (*CSR, *CSR){lowCFFixture, highCFFixture} {
		eng := plannerEngine(t)
		a, b := fixture()
		plan, err := eng.Plan(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := eng.Multiply(ctx, a, b, WithAlgorithm(Auto))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Multiply(ctx, a, b, WithAlgorithm(Auto), WithPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != plan || res.Algorithm != plan.Chosen {
			t.Fatalf("ran %v reporting plan %p, want the handed plan %p (%v)", res.Algorithm, res.Plan, plan, plan.Chosen)
		}
		if !EqualWithin(auto.C, res.C, 0) {
			t.Fatalf("%v: the handed plan's product differs from Auto's", plan.Chosen)
		}
		if am := eng.Metrics().ByAlgorithm[plan.Chosen]; am.Calls != 2 || am.AutoChosen != 2 {
			t.Fatalf("%v: %d calls, %d Auto picks, want 2 and 2", plan.Chosen, am.Calls, am.AutoChosen)
		}
	}
}

// TestMultiplyObeysAHandedPlan: a handed plan that chose the other kernel is
// run as handed, not re-decided, and the bytes are still Auto's (they never
// depend on the pick, TestAutoBytesDoNotDependOnPick).
func TestMultiplyObeysAHandedPlan(t *testing.T) {
	ctx := context.Background()
	for _, fixture := range []func() (*CSR, *CSR){lowCFFixture, highCFFixture} {
		eng := plannerEngine(t)
		a, b := fixture()
		plan, err := eng.Plan(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := eng.Multiply(ctx, a, b, WithAlgorithm(Auto))
		if err != nil {
			t.Fatal(err)
		}
		flipped := *plan
		flipped.Chosen = otherKernel(plan)
		res, err := eng.Multiply(ctx, a, b, WithAlgorithm(Auto), WithPlan(&flipped))
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != flipped.Chosen || res.Plan != &flipped {
			t.Fatalf("handed %v, ran %v", flipped.Chosen, res.Algorithm)
		}
		if am := eng.Metrics().ByAlgorithm[flipped.Chosen]; am.AutoChosen != 1 {
			t.Fatalf("%v run from a handed plan not counted as an Auto pick: %+v", flipped.Chosen, am)
		}
		if !EqualWithin(auto.C, res.C, 0) {
			t.Fatalf("%v from a handed plan differs from Auto's %v", flipped.Chosen, plan.Chosen)
		}
	}
}

// TestMultiplyIgnoresAPlanItCannotRun: a plan for other operands, one that
// chose neither PB nor SPA, a SPA plan under a memory budget, a plan on an
// explicit algorithm and a plan on a masked call are all ignored: the call
// runs as it would without one.
func TestMultiplyIgnoresAPlanItCannotRun(t *testing.T) {
	ctx := context.Background()
	eng := plannerEngine(t)
	a, b := highCFFixture()
	plan, err := eng.Plan(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != SPA {
		t.Fatalf("fixture planned %v, want SPA", plan.Chosen)
	}
	elsewhere, err := eng.Plan(ctx, a, NewER(192, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	elsewhere.Chosen = PB // Auto picks SPA here: only a wrongly obeyed plan runs PB
	hash := *plan
	hash.Chosen = Hash
	for name, tc := range map[string]struct {
		opts     []Option
		handed   *Plan
		wantAlg  Algorithm
		wantPlan bool
	}{
		"other-operands": {[]Option{WithAlgorithm(Auto)}, elsewhere, SPA, true},
		"hash":           {[]Option{WithAlgorithm(Auto)}, &hash, SPA, true},
		"spa-budgeted":   {[]Option{WithAlgorithm(Auto), WithMemoryBudget(1 << 20)}, plan, PB, true},
		"explicit":       {[]Option{WithAlgorithm(PB)}, plan, PB, false},
		"masked":         {[]Option{WithAlgorithm(Auto), WithMask(a)}, plan, PB, false},
	} {
		res, err := eng.Multiply(ctx, a, b, append(tc.opts, WithPlan(tc.handed))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != tc.wantAlg || res.Plan == tc.handed || (res.Plan != nil) != tc.wantPlan {
			t.Fatalf("%s: ran %v with plan %+v, want %v planned afresh=%v", name, res.Algorithm, res.Plan, tc.wantAlg, tc.wantPlan)
		}
	}
}
