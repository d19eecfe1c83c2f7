package core

import (
	"fmt"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// onesLike returns a structural copy of m with every stored value 1.0.
// Integer-valued sums below 2^53 are exact in float64, so products of such
// matrices are independent of summation order — the property that lets the
// budgeted path be asserted bit-identical to the single-shot path.
func onesLike(m *matrix.CSR) *matrix.CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] = 1
	}
	return out
}

func bitIdentical(t *testing.T, want, got *matrix.CSR) {
	t.Helper()
	if want.NumRows != got.NumRows || want.NumCols != got.NumCols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", want.NumRows, want.NumCols, got.NumRows, got.NumCols)
	}
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz mismatch: %d vs %d", want.NNZ(), got.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: %d vs %d", i, want.RowPtr[i], got.RowPtr[i])
		}
	}
	for i := range want.ColIdx {
		if want.ColIdx[i] != got.ColIdx[i] {
			t.Fatalf("ColIdx[%d]: %d vs %d", i, want.ColIdx[i], got.ColIdx[i])
		}
		if want.Val[i] != got.Val[i] {
			t.Fatalf("Val[%d]: %v vs %v", i, want.Val[i], got.Val[i])
		}
	}
}

// TestBudgetedBitIdenticalToSingleShot is the tentpole acceptance check: a
// run with MemoryBudgetBytes far below the tuple-buffer size completes and
// produces a CSR bit-identical to the unbudgeted result.
func TestBudgetedBitIdenticalToSingleShot(t *testing.T) {
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(600, 6, 1), gen.ER(600, 6, 2)},
		{"RMAT", gen.RMAT(9, 6, gen.Graph500Params, 3), gen.RMAT(9, 6, gen.Graph500Params, 4)},
	}
	for _, in := range inputs {
		a, b := onesLike(in.a), onesLike(in.b)
		acsc := a.ToCSC()
		want, st0, err := Multiply(acsc, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st0.NPanels != 1 {
			t.Fatalf("%s: unbudgeted run used %d panels", in.name, st0.NPanels)
		}
		fullBytes := st0.Flops * tupleBytes
		for _, budget := range []int64{fullBytes / 4, fullBytes / 16, fullBytes / 64, 1} {
			t.Run(fmt.Sprintf("%s/budget=%d", in.name, budget), func(t *testing.T) {
				got, st, err := Multiply(acsc, b, Options{MemoryBudgetBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				if st.NPanels < 2 {
					t.Fatalf("budget %d did not tile: %d panels", budget, st.NPanels)
				}
				if st.Flops != st0.Flops {
					t.Fatalf("flops changed under budget: %d vs %d", st.Flops, st0.Flops)
				}
				bitIdentical(t, want, got)
			})
		}
	}
}

// TestBudgetedFloatValuesClose checks the budgeted path on real-valued
// inputs, where summation order may differ at rounding level.
func TestBudgetedFloatValuesClose(t *testing.T) {
	a := gen.ER(500, 8, 11).ToCSC()
	b := gen.ER(500, 8, 12)
	want, st0, err := Multiply(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Multiply(a, b, Options{MemoryBudgetBytes: st0.Flops * tupleBytes / 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.NPanels < 2 {
		t.Fatalf("expected tiling, got %d panels", st.NPanels)
	}
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("budgeted product differs from single-shot beyond tolerance")
	}
}

// TestBudgetBoundsTupleBuffer verifies the budget actually caps the pooled
// tuple buffer (modulo the one-column minimum panel size).
func TestBudgetBoundsTupleBuffer(t *testing.T) {
	a := gen.ER(800, 6, 5)
	acsc := a.ToCSC()
	b := gen.ER(800, 6, 6)
	flops := matrix.Flops(acsc, b)
	budget := flops * tupleBytes / 8

	ws := NewWorkspace()
	if _, _, err := Multiply(acsc, b, Options{Workspace: ws, MemoryBudgetBytes: budget}); err != nil {
		t.Fatal(err)
	}
	// Max per-column flops is the floor the one-column minimum imposes.
	var maxCol int64
	for j := int32(0); j < acsc.NumCols; j++ {
		if f := acsc.ColNNZ(j) * b.RowNNZ(j); f > maxCol {
			maxCol = f
		}
	}
	limit := budget
	if maxCol*tupleBytes > limit {
		limit = maxCol * tupleBytes
	}
	if got := ws.TupleCapBytes(); got > limit {
		t.Fatalf("tuple buffer %d bytes exceeds budget %d (one-column floor %d)",
			got, budget, maxCol*tupleBytes)
	}
}

// TestWorkspaceZeroSteadyStateAllocs is the other tentpole acceptance check:
// repeated Multiply with a shared Workspace performs zero steady-state heap
// allocations (single-threaded; the parallel paths add only goroutine-spawn
// allocations).
func TestWorkspaceZeroSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"single-shot", 0}, {"budgeted", 32 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget}
			// Warm up: grow every pooled buffer to its high-water mark.
			if _, _, err := Multiply(a, b, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := Multiply(a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Multiply allocated %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestWorkspaceReuseAcrossShapes multiplies differently-shaped inputs
// through one workspace, verifying results against the reference and that
// shrinking inputs do not read stale pooled state.
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	shapes := []struct {
		n    int32
		d    int
		seed uint64
	}{{500, 6, 1}, {64, 3, 2}, {300, 5, 3}, {8, 2, 4}, {500, 6, 5}}
	for _, s := range shapes {
		a := gen.ER(s.n, s.d, s.seed)
		b := gen.ER(s.n, s.d, s.seed+100)
		want := matrix.ReferenceMultiply(a, b)
		got, _, err := Multiply(a.ToCSC(), b, Options{Workspace: ws, MemoryBudgetBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(want, got, 1e-9) {
			t.Fatalf("n=%d: workspace-pooled product differs from reference", s.n)
		}
	}
}

// TestWorkspaceResultAliasing documents the pooled-output contract: the CSR
// returned from a workspace run is overwritten by the next call, and Clone
// detaches it.
func TestWorkspaceResultAliasing(t *testing.T) {
	ws := NewWorkspace()
	a := gen.ER(200, 4, 1).ToCSC()
	b := gen.ER(200, 4, 2)
	c1, _, err := Multiply(a, b, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	keep := c1.Clone()
	a2 := gen.ER(200, 4, 7).ToCSC()
	b2 := gen.ER(200, 4, 8)
	if _, _, err := Multiply(a2, b2, Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	want := matrix.ReferenceMultiply(gen.ER(200, 4, 1), b)
	if !matrix.Equal(want, keep, 1e-9) {
		t.Fatal("cloned result corrupted by workspace reuse")
	}
}

// TestBudgetedEmptyAndEdgeShapes exercises degenerate inputs through the
// budgeted path.
func TestBudgetedEmptyAndEdgeShapes(t *testing.T) {
	ws := NewWorkspace()
	empty := matrix.NewCSR(10, 10, 0)
	c, st, err := Multiply(empty.ToCSC(), empty, Options{Workspace: ws, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 || st.Flops != 0 {
		t.Fatal("empty product must be empty")
	}
	// 1x1 identity-ish.
	one := &matrix.COO{NumRows: 1, NumCols: 1, Row: []int32{0}, Col: []int32{0}, Val: []float64{2}}
	m := one.ToCSR()
	c, _, err = Multiply(m.ToCSC(), m, Options{Workspace: ws, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 || c.Val[0] != 4 {
		t.Fatalf("1x1 square wrong: %v", c.Val)
	}
}
