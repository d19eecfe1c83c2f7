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
	g := planBinGeometry(acsc.NumRows, flops, colBitsFor(b.NumCols), SqueezedTupleBytes, opt.withDefaults())
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

// TestUnsortedColumnsSameBytesUnderBudgets: a CSC whose columns' rows do not
// all ascend gives the bytes of its sorted twin on every layout — Multiply,
// MultiplyPattern and MultiplyGeneric over typed and function bindings — in
// one group, in a few and in one bin a group, at one and two threads. The cut
// of A keeps each column's entries in stored order, and a key's products
// still arrive in ascending k.
func TestUnsortedColumnsSameBytesUnderBudgets(t *testing.T) {
	a, b := gen.ER(600, 6, 31), gen.ER(600, 6, 32)
	sorted := a.ToCSC()
	unsorted := &matrix.CSC{NumRows: sorted.NumRows, NumCols: sorted.NumCols, ColPtr: sorted.ColPtr,
		RowIdx: slices.Clone(sorted.RowIdx), Val: slices.Clone(sorted.Val)}
	for j := int32(0); j < unsorted.NumCols; j += 2 {
		lo, hi := unsorted.ColPtr[j], unsorted.ColPtr[j+1]
		slices.Reverse(unsorted.RowIdx[lo:hi])
		slices.Reverse(unsorted.Val[lo:hi])
	}
	fullBytes := matrix.Flops(sorted, b) * tupleBytes
	for _, tc := range []struct {
		budget               int64
		minGroups, maxGroups int
	}{{0, 1, 1}, {fullBytes / 4, 2, 16}, {1, 300, 600}} {
		_, st, err := Multiply(unsorted, b, Options{MemoryBudgetBytes: tc.budget})
		if err != nil {
			t.Fatalf("budget=%d: %v", tc.budget, err)
		}
		if st.NGroups < tc.minGroups || st.NGroups > tc.maxGroups {
			t.Fatalf("budget=%d: %d groups of %d bins, want %d–%d", tc.budget, st.NGroups, st.NBins, tc.minGroups, tc.maxGroups)
		}
	}
	wants := foldRunners(sorted, b)
	for i, lr := range foldRunners(unsorted, b) {
		t.Run(lr.name, func(t *testing.T) {
			want, err := wants[i].run(Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{0, fullBytes / 4, 1} {
				for _, threads := range []int{1, 2} {
					got, err := lr.run(Options{Threads: threads, MemoryBudgetBytes: budget})
					if err != nil {
						t.Fatalf("budget=%d threads=%d: %v", budget, threads, err)
					}
					if !got.same(want) {
						t.Fatalf("budget=%d threads=%d: differs from the sorted CSC's product", budget, threads)
					}
				}
			}
		})
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
	// The cut of A at its edges, on every layout: each shape's single-shot
	// bytes (FoldReference's for the squeezed layout) hold under budgets of a
	// few groups and of one bin a group, at one and two threads.
	r := gen.NewRNG(48)
	random := func(rows, cols int32, n int, rowOf, colOf func() int32) *matrix.COO {
		m := &matrix.COO{NumRows: rows, NumCols: cols}
		for range n {
			m.Row, m.Col, m.Val = append(m.Row, rowOf()), append(m.Col, colOf()), append(m.Val, float64(1+r.Intn(5))/4)
		}
		return m
	}
	in := func(n int32) func() int32 { return func() int32 { return r.Intn(n) } }
	from := func(lo, n int32) func() int32 { return func() int32 { return lo + r.Intn(n) } }
	// A column reaching every group: column 0 of A holds every row.
	everyRow := random(256, 32, 600, in(256), in(32))
	for i := range int32(256) {
		everyRow.Row, everyRow.Col, everyRow.Val = append(everyRow.Row, i), append(everyRow.Col, 0), append(everyRow.Val, 0.5)
	}
	// A single-entry group: rows 100–199 of A hold one entry.
	single := random(200, 20, 300, in(100), in(20))
	single.Row, single.Col, single.Val = append(single.Row, 150), append(single.Col, 5), append(single.Val, 3)
	bigA, bigB := binCapProduct(1<<22 + 1)
	for _, tc := range []struct {
		name    string
		a, b    *matrix.CSR
		nbins   int
		budgets []int64 // nil: a quarter of the product's tuples, and 1
	}{
		// A group no column reaches: 8 192 one-row bins in two groups of
		// 4 096, and no entry of A in the second group's rows.
		{"unreached-group", random(8192, 64, 400, in(4096), in(64)).ToCSR(), random(64, 64, 400, in(64), in(64)).ToCSR(), 8192, nil},
		{"column-in-every-group", everyRow.ToCSR(), random(32, 40, 200, in(32), in(40)).ToCSR(), 0, nil},
		// Columns 0–9 of A are empty, and rows 10–19 of B, which A's
		// columns 10–19 meet.
		{"empty-columns-and-rows", random(300, 40, 900, in(300), from(10, 30)).ToCSR(), random(40, 50, 400, from(20, 20), in(50)).ToCSR(), 0, nil},
		{"single-entry-group", single.ToCSR(), random(20, 30, 120, in(20), in(30)).ToCSR(), 0, nil},
		// The 4 097-bin product, past maxKey32Bins, under a budget.
		{"4097-bins", bigA, bigB, 0, []int64{1 << 10}},
	} {
		acsc, ref := tc.a.ToCSC(), FoldReference(tc.a, tc.b)
		budgets := tc.budgets
		if budgets == nil {
			budgets = []int64{matrix.Flops(acsc, tc.b) * tupleBytes / 4, 1}
		}
		for _, lr := range foldRunners(acsc, tc.b) {
			t.Run(tc.name+"/"+lr.name, func(t *testing.T) {
				want, err := lr.run(Options{Threads: 1, NBins: tc.nbins})
				if err != nil {
					t.Fatal(err)
				}
				if lr.name == "squeezed" && !want.same(product{ref, valueBits(ref.Val)}) {
					t.Fatal("single-shot product differs from FoldReference")
				}
				for _, budget := range budgets {
					for _, threads := range []int{1, 2} {
						got, err := lr.run(Options{Threads: threads, NBins: tc.nbins, MemoryBudgetBytes: budget})
						if err != nil {
							t.Fatalf("budget=%d threads=%d: %v", budget, threads, err)
						}
						if !got.same(want) {
							t.Fatalf("budget=%d threads=%d: differs from the single-shot product", budget, threads)
						}
					}
				}
			})
		}
	}
}
