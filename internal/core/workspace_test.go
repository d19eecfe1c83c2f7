package core

import (
	"fmt"
	"slices"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// TestBudgetedBitIdenticalToSingleShot is the tentpole acceptance check: a
// run with MemoryBudgetBytes far below the tuple-buffer size completes and
// produces a CSR bit-identical to the unbudgeted result, real values
// included: every bin folds all its tuples once, in ascending k, in whichever
// group holds it.
func TestBudgetedBitIdenticalToSingleShot(t *testing.T) {
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(600, 6, 1), gen.ER(600, 6, 2)},
		{"RMAT", gen.RMAT(9, 6, gen.Graph500Params, 3), gen.RMAT(9, 6, gen.Graph500Params, 4)},
		{"ER500", gen.ER(500, 8, 11), gen.ER(500, 8, 12)},
	}
	for _, in := range inputs {
		acsc := in.a.ToCSC()
		want, st0, err := Multiply(acsc, in.b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st0.NGroups != 1 {
			t.Fatalf("%s: unbudgeted run used %d groups", in.name, st0.NGroups)
		}
		fullBytes := st0.Flops * tupleBytes
		for _, budget := range []int64{fullBytes / 4, fullBytes / 10, fullBytes / 16, fullBytes / 64, 1} {
			t.Run(fmt.Sprintf("%s/budget=%d", in.name, budget), func(t *testing.T) {
				got, st, err := Multiply(acsc, in.b, Options{MemoryBudgetBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				if st.NGroups < 2 {
					t.Fatalf("budget %d did not cut the bins: %d groups", budget, st.NGroups)
				}
				if st.Flops != st0.Flops {
					t.Fatalf("flops changed under budget: %d vs %d", st.Flops, st0.Flops)
				}
				if !csrBitIdentical(want, got) {
					t.Fatal("budgeted product differs from the unbudgeted one")
				}
			})
		}
	}
}

// TestBudgetBoundsTupleBuffer verifies the budget actually caps the pooled
// tuple buffer (modulo the one-bin minimum group).
func TestBudgetBoundsTupleBuffer(t *testing.T) {
	a := gen.ER(800, 6, 5)
	acsc := a.ToCSC()
	b := gen.ER(800, 6, 6)
	flops := matrix.Flops(acsc, b)
	budget := flops * tupleBytes / 8

	ws := NewWorkspace()
	opt := Options{Workspace: ws, MemoryBudgetBytes: budget}
	if _, _, err := Multiply(acsc, b, opt); err != nil {
		t.Fatal(err)
	}
	// The largest bin's tuples are the floor the one-bin minimum imposes.
	g := planBinGeometry(acsc.NumRows, flops, colBitsFor(b.NumCols), 32, SqueezedTupleBytes, opt.withDefaults())
	binFlops := make([]int64, g.nbins)
	for j := int32(0); j < acsc.NumCols; j++ {
		for p := acsc.ColPtr[j]; p < acsc.ColPtr[j+1]; p++ {
			binFlops[acsc.RowIdx[p]>>g.rowShift] += b.RowNNZ(j)
		}
	}
	floor := slices.Max(binFlops) * SqueezedTupleBytes
	if got := ws.TupleCapBytes(); got > max(budget, floor) {
		t.Fatalf("tuple buffer %d bytes exceeds budget %d (one-bin floor %d)", got, budget, floor)
	}
}

// TestBudgetedRejectsUnsortedColumns: bin groups take each column's entries
// of A by ascending row, so a budgeted run of a CSC whose column rows do not
// ascend returns an error instead of a product missing entries. The CSCs the
// entry points convert always ascend.
func TestBudgetedRejectsUnsortedColumns(t *testing.T) {
	a := &matrix.CSC{NumRows: 8, NumCols: 2, ColPtr: []int64{0, 2, 3}, RowIdx: []int32{6, 1, 3}, Val: []float64{1, 2, 3}}
	b := (&matrix.COO{NumRows: 2, NumCols: 8, Row: []int32{0, 0, 1}, Col: []int32{0, 3, 5}, Val: []float64{1, 1, 1}}).ToCSR()
	if _, _, err := Multiply(a, b, Options{}); err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	if _, _, err := Multiply(a, b, Options{MemoryBudgetBytes: 1}); err == nil {
		t.Fatal("a budgeted run over an unsorted column returned no error")
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
// through one budgeted workspace, verifying results against the unbudgeted
// product on fresh buffers, bit for bit, and that shrinking inputs do not read
// stale pooled state.
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
		want, _, err := Multiply(a.ToCSC(), b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Multiply(a.ToCSC(), b, Options{Workspace: ws, MemoryBudgetBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !csrBitIdentical(want, got) {
			t.Fatalf("n=%d: budgeted workspace-pooled product differs from the unbudgeted one", s.n)
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
