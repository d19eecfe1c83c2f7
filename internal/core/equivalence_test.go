package core_test

// Cross-implementation equivalence: PB-SpGEMM (internal/core) against the
// hash-accumulator column SpGEMM baseline, and the generic semiring engine
// instantiated with arithmetic against the tuned float64 kernel — on
// randomized ER and R-MAT inputs, seeded and table-driven, through both the
// unbudgeted and the memory-budgeted execution paths.

import (
	"fmt"
	"testing"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/semiring"
)

type equivCase struct {
	name string
	a, b *matrix.CSR
}

func equivCases() []equivCase {
	var cases []equivCase
	for _, seed := range []uint64{1, 7, 42} {
		cases = append(cases, equivCase{
			name: fmt.Sprintf("ER/n512/d6/seed%d", seed),
			a:    gen.ER(512, 6, seed),
			b:    gen.ER(512, 6, seed+1000),
		})
	}
	for _, seed := range []uint64{3, 9} {
		cases = append(cases, equivCase{
			name: fmt.Sprintf("RMAT/s9/ef8/seed%d", seed),
			a:    gen.RMAT(9, 8, gen.Graph500Params, seed),
			b:    gen.RMAT(9, 8, gen.Graph500Params, seed+1000),
		})
	}
	// A rectangular chain exercises non-square shapes.
	cases = append(cases, equivCase{
		name: "ER/rect",
		a:    gen.ER(256, 4, 5),
		b:    gen.ER(256, 4, 6),
	})
	return cases
}

// TestCoreMatchesHashBaseline checks PB-SpGEMM against the paper's strongest
// column baseline (HashSpGEMM), both single-shot and budgeted.
func TestCoreMatchesHashBaseline(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := baseline.Hash(tc.a, tc.b, baseline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			acsc := tc.a.ToCSC()
			for _, budget := range []int64{0, 16 << 10} {
				got, st, err := core.Multiply(acsc, tc.b, core.Options{MemoryBudgetBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				if budget > 0 && st.Flops*16 > budget && st.NGroups < 2 {
					t.Fatalf("budget %d should have cut the bins (flops=%d)", budget, st.Flops)
				}
				if !matrix.Equal(want, got, 1e-9) {
					t.Fatalf("PB (budget=%d) differs from HashSpGEMM", budget)
				}
			}
		})
	}
}

// TestEquivalenceMatrixFusedRow is the fused pipeline's row of the
// cross-implementation matrix: on every table input, budgeted and
// unbudgeted, at Threads ∈ {1, 2, 8}, the pipeline must reproduce
// core.FoldReference — the scalar fold in ascending k —
// exactly, zero tolerance.
func TestEquivalenceMatrixFusedRow(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			acsc := tc.a.ToCSC()
			want := core.FoldReference(tc.a, tc.b)
			for _, budget := range []int64{0, 16 << 10} {
				for _, threads := range []int{1, 2, 8} {
					got, _, err := core.Multiply(acsc, tc.b, core.Options{MemoryBudgetBytes: budget, Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					if !matrix.Equal(want, got, 0) {
						t.Fatalf("budget=%d threads=%d: differs from the ascending-k fold", budget, threads)
					}
				}
			}
		})
	}
}

// TestSemiringArithmeticMatchesCore checks the generic engine over the
// arithmetic semiring against the tuned float64 kernel, across the same
// table and both execution paths, with and without a shared workspace.
func TestSemiringArithmeticMatchesCore(t *testing.T) {
	sr := semiring.Arithmetic()
	ws := core.NewWorkspace()
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			acsc := tc.a.ToCSC()
			want, _, err := core.Multiply(acsc, tc.b, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ga := semiring.FromCSR(tc.a, func(v float64) float64 { return v }).ToCSC()
			gb := semiring.FromCSR(tc.b, func(v float64) float64 { return v })
			for _, opt := range []semiring.Options{
				{},
				{MemoryBudgetBytes: 16 << 10},
				{Workspace: ws},
				{Workspace: ws, MemoryBudgetBytes: 16 << 10},
			} {
				gc, err := semiring.MultiplyOpts(sr, ga, gb, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := gc.Validate(); err != nil {
					t.Fatalf("opt %+v: %v", opt, err)
				}
				got := gc.ToCSR(func(v float64) float64 { return v })
				if !matrix.Equal(want, got, 0) {
					t.Fatalf("semiring arithmetic (opt %+v) differs from core kernel", opt)
				}
			}
		})
	}
}

// TestSemiringBudgetedMinPlusBitIdentical checks bin groups under the
// semiring engine: the budgeted result must be bit-identical to the
// single-shot one.
func TestSemiringBudgetedMinPlusBitIdentical(t *testing.T) {
	sr := semiring.MinPlus()
	d := gen.ER(400, 5, 77)
	gd := semiring.FromCSR(d, func(v float64) float64 { return v })
	ga := gd.ToCSC()
	want, err := semiring.MultiplyOpts(sr, ga, gd, semiring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := semiring.MultiplyOpts(sr, ga, gd, semiring.Options{MemoryBudgetBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz: %d vs %d", want.NNZ(), got.NNZ())
	}
	for i := range want.ColIdx {
		if want.ColIdx[i] != got.ColIdx[i] || want.Val[i] != got.Val[i] {
			t.Fatalf("entry %d: (%d,%v) vs (%d,%v)", i,
				want.ColIdx[i], want.Val[i], got.ColIdx[i], got.Val[i])
		}
	}
}
