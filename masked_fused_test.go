package pbspgemm

import (
	"context"
	"testing"
)

// intValued rewrites a matrix's values to small integers so every summation
// order is exact in float64: the masked path (the row kernel) and the
// float64 core path (squeezed keys, fused pipeline) fold duplicates in
// different orders, and integer values let the two be held to exact
// equality.
func intValued(m *CSR) *CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] = float64(i%7 + 1)
	}
	return out
}

// TestMultiplyMaskedAgainstSqueezedFusedPipeline pins masked multiply
// against the engine's default execution of the unmasked product — the
// squeezed tuple layout under the fused pipeline — on ER and skewed R-MAT
// inputs: C⟨M⟩ must equal the fused squeezed product filtered by the mask,
// exactly, for the plain and the complement mask, single-shot and budgeted.
func TestMultiplyMaskedAgainstSqueezedFusedPipeline(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		a, b, mask *CSR
	}{
		{"ER", intValued(NewER(512, 6, 41)), intValued(NewER(512, 6, 42)), NewER(512, 9, 43)},
		{"RMAT", intValued(NewRMAT(9, 8, 44)), intValued(NewRMAT(9, 8, 45)), NewRMAT(9, 6, 46)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The unmasked product through the default PB path must have run
			// squeezed AND fused — that is the pipeline this test pins the
			// masked results against.
			res, err := eng.Multiply(context.Background(), tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if res.PB == nil || res.PB.Layout != LayoutSqueezed || res.PB.Fuse <= 0 {
				t.Fatalf("fixture did not exercise the squeezed fused pipeline: %+v", res.PB)
			}
			full := res.C.Clone() // res.C aliases the engine's pooled workspace

			for _, complement := range []bool{false, true} {
				want := maskCSR(full, tc.mask, complement)
				opts := []Option{WithMask(tc.mask)}
				if complement {
					opts = []Option{WithComplementMask(tc.mask)}
				}
				got, err := MultiplyMasked(tc.a, tc.b, tc.mask, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualWithin(want, got, 0) {
					t.Fatalf("complement=%v: masked product differs from fused squeezed product ∘ mask", complement)
				}
				// The budgeted masked path must filter identically.
				budgeted, err := MultiplyMasked(tc.a, tc.b, tc.mask,
					append(opts, WithMemoryBudget(1<<12))...)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualWithin(want, budgeted, 0) {
					t.Fatalf("complement=%v: budgeted masked product differs", complement)
				}
				// And the Engine entry point with the mask as an option.
				mres, err := eng.Multiply(context.Background(), tc.a, tc.b, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualWithin(want, mres.C, 0) {
					t.Fatalf("complement=%v: engine masked product differs", complement)
				}
			}
		})
	}
}

// TestComplementMaskRunsThePlannedKernel: a complement mask is the planned
// product with M's positions dropped. On ER 1024·d128, where Auto picks SPA,
// and ER 2^16·d2, where it picks PB, an Auto call runs Plan.Chosen, reports
// that kernel's stats and is counted under it, Engine.Plan prices that same
// run, a WithAlgorithm(SPA) call runs SPA, and every product is
// maskCSR(Reference, M, true) bit for bit — under M = A, and under a mask
// holding every third entry of the product and positions it never reaches.
func TestComplementMaskRunsThePlannedKernel(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		a, b *CSR
		pick Algorithm
	}{
		{"ER1024-d128", NewER(1024, 128, 1), NewER(1024, 128, 2), SPA},
		{"ER65536-d2", NewER(1<<16, 2, 1), NewER(1<<16, 2, 2), PB},
	} {
		ref := Reference(tc.a, tc.b)
		// Every third entry of the product, and A's positions.
		mixed := &COO{NumRows: ref.NumRows, NumCols: ref.NumCols}
		add := func(i, j int32) {
			mixed.Row, mixed.Col, mixed.Val = append(mixed.Row, i), append(mixed.Col, j), append(mixed.Val, 1)
		}
		for i := int32(0); i < ref.NumRows; i++ {
			for p := ref.RowPtr[i]; p < ref.RowPtr[i+1]; p += 3 {
				add(i, ref.ColIdx[p])
			}
			for p := tc.a.RowPtr[i]; p < tc.a.RowPtr[i+1]; p++ {
				add(i, tc.a.ColIdx[p])
			}
		}
		for _, m := range []*CSR{tc.a, mixed.ToCSR()} {
			want := maskCSR(ref, m, true)
			eng, err := NewEngine(WithComplementMask(m))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := eng.Plan(ctx, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Multiply(ctx, tc.a, tc.b, WithAlgorithm(Auto))
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != tc.pick || res.Plan == nil || res.Plan.Chosen != tc.pick ||
				*res.Plan != *plan || (res.PB != nil) != (tc.pick == PB) || (res.Baseline != nil) != (tc.pick == SPA) {
				t.Fatalf("%s: Auto ran %v with plan %+v (Engine.Plan %+v), PB stats %v, column stats %v; want %v",
					tc.name, res.Algorithm, res.Plan, plan, res.PB != nil, res.Baseline != nil, tc.pick)
			}
			if ac := eng.Metrics().ByAlgorithm[tc.pick]; ac.Calls != 1 || ac.AutoChosen != 1 {
				t.Fatalf("%s: metrics under %v: %+v", tc.name, tc.pick, ac)
			}
			if err := sameBytes(want, res.C); err != nil {
				t.Fatalf("%s: Auto's product is not Reference with M's positions dropped: %v", tc.name, err)
			}
			spa, err := eng.Multiply(ctx, tc.a, tc.b, WithAlgorithm(SPA))
			if err != nil {
				t.Fatal(err)
			}
			if spa.Algorithm != SPA || spa.Baseline == nil || spa.PB != nil {
				t.Fatalf("%s: WithAlgorithm(SPA) ran %v", tc.name, spa.Algorithm)
			}
			if err := sameBytes(want, spa.C); err != nil {
				t.Fatalf("%s: SPA's product is not Reference with M's positions dropped: %v", tc.name, err)
			}
		}
	}
}
