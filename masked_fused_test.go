package pbspgemm

import (
	"context"
	"testing"
)

// intValued rewrites a matrix's values to small integers so every summation
// order is exact in float64: the masked path (generic semiring engine, wide
// uint64 keys) and the float64 core path (squeezed keys, fused pipeline)
// fold duplicates in different orders, and integer values let the two be
// held to exact equality.
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
