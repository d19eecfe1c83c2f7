package core

import (
	"errors"
	"slices"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// csrSameStructure compares sparsity structure only: dimensions, RowPtr, and
// ColIdx. This is the equality the pattern (4 B) layout is held to — its
// result carries no value plane (Val == nil).
func csrSameStructure(a, b *matrix.CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		return false
	}
	if len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	return true
}

// narrowPlanes extracts the float64 value planes of an (A, B) pair as []V for
// driving the narrow product. Generators emit values in [0, 1); tests that need
// exact cross-width equality pass integer-valued inputs instead.
func narrowPlanes[V narrowValue](a *matrix.CSC, b *matrix.CSR) (av, bv []V) {
	av = make([]V, len(a.Val))
	for i, v := range a.Val {
		av[i] = V(v)
	}
	bv = make([]V, len(b.Val))
	for i, v := range b.Val {
		bv[i] = V(v)
	}
	return av, bv
}

// intValued rewrites a matrix's values to small integers derived from the
// entry index, so folds are exact in float32, int32, and float64 alike and
// every layout can be held to bit-identical results.
func intValued(m *matrix.CSR) *matrix.CSR {
	for i := range m.Val {
		m.Val[i] = float64(i%7 + 1)
	}
	return m
}

// TestPatternMatchesWideStructure is the pattern layout's row of the
// equivalence matrix: across Threads∈{1,2,8} × budgeted/unbudgeted ×
// pooled/fresh, MultiplyPattern produces exactly the sparsity structure of
// matrix.ReferenceMultiply (the wide layout's, before that layout went), with
// no value plane allocated.
func TestPatternMatchesWideStructure(t *testing.T) {
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(1024, 8, 21), gen.ER(1024, 8, 22)},
		{"RMAT-skewed", gen.RMAT(10, 8, gen.Graph500Params, 23), gen.RMAT(10, 8, gen.Graph500Params, 24)},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			acsc := in.a.ToCSC()
			want := matrix.ReferenceMultiply(in.a, in.b)
			ws := NewWorkspace()
			for _, budget := range []int64{0, 64 << 10} {
				for _, threads := range []int{1, 2, 8} {
					for _, pooled := range []bool{false, true} {
						opt := Options{Threads: threads, MemoryBudgetBytes: budget}
						if pooled {
							opt.Workspace = ws
						}
						got, st, err := MultiplyPattern(acsc, in.b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if st.Layout != LayoutPattern {
							t.Fatalf("stats layout %v, want pattern", st.Layout)
						}
						if got.Val != nil {
							t.Fatalf("pattern result carries a value plane (%d values)", len(got.Val))
						}
						if !csrSameStructure(want, got) {
							t.Fatalf("threads=%d budget=%d pooled=%v: structure differs from Reference", threads, budget, pooled)
						}
					}
				}
			}
		})
	}
}

// TestNarrowMatchesWideValues is the narrow (8 B) layout's equivalence row:
// with integer-valued inputs (exact in every width), float32 and int32
// products are bit-identical to the float64 sums of matrix.ReferenceMultiply
// (the wide layout's, before that layout went) across Threads∈{1,2,8} ×
// budgeted/unbudgeted.
func TestNarrowMatchesWideValues(t *testing.T) {
	a := intValued(gen.ER(1024, 8, 25))
	b := intValued(gen.ER(1024, 8, 26))
	acsc := a.ToCSC()
	want := matrix.ReferenceMultiply(a, b)
	af32, bf32 := narrowPlanes[float32](acsc, b)
	ai32, bi32 := narrowPlanes[int32](acsc, b)
	ws := NewWorkspace()
	for _, budget := range []int64{0, 64 << 10} {
		for _, threads := range []int{1, 2, 8} {
			opt := Options{Threads: threads, MemoryBudgetBytes: budget, Workspace: ws}
			got, vals, st, err := multiplyNarrow(acsc, af32, b, bf32, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutNarrow {
				t.Fatalf("stats layout %v, want narrow", st.Layout)
			}
			if !csrSameStructure(want, got) {
				t.Fatalf("threads=%d budget=%d: float32 structure differs from Reference", threads, budget)
			}
			if len(vals) != len(want.Val) {
				t.Fatalf("float32 value plane has %d entries, want %d", len(vals), len(want.Val))
			}
			for i, v := range vals {
				if float64(v) != want.Val[i] {
					t.Fatalf("threads=%d budget=%d: float32 value[%d] = %v, want %v", threads, budget, i, v, want.Val[i])
				}
			}
			goti, ivals, _, err := multiplyNarrow(acsc, ai32, b, bi32, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !csrSameStructure(want, goti) {
				t.Fatalf("threads=%d budget=%d: int32 structure differs from Reference", threads, budget)
			}
			for i, v := range ivals {
				if float64(v) != want.Val[i] {
					t.Fatalf("threads=%d budget=%d: int32 value[%d] = %v, want %v", threads, budget, i, v, want.Val[i])
				}
			}
		}
	}
}

// TestPatternNarrowSteadyStateAllocs extends the alloc regression gate to the
// new layouts: repeated pooled Threads=1 calls allocate nothing, single-shot
// and budgeted.
func TestPatternNarrowSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 3)
	b := gen.ER(400, 6, 4)
	acsc := a.ToCSC()
	af, bf := narrowPlanes[float32](acsc, b)
	for _, budget := range []int64{0, 32 << 10} {
		ws := NewWorkspace()
		opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: budget}
		if _, _, err := MultiplyPattern(acsc, b, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := MultiplyPattern(acsc, b, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("pattern budget=%d: %.1f allocs per steady-state call, want 0", budget, allocs)
		}
		if _, _, _, err := multiplyNarrow(acsc, af, b, bf, opt); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(10, func() {
			if _, _, _, err := multiplyNarrow(acsc, af, b, bf, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("narrow budget=%d: %.1f allocs per steady-state call, want 0", budget, allocs)
		}
	}
}

// TestKey32EntryPointErrors pins the error contract of the key32 entry
// points: no key width is an error — a geometry whose flop rule packs past
// 32 bits runs in more bins — and short value planes are shape errors.
func TestKey32EntryPointErrors(t *testing.T) {
	// 2^30 columns: colBits = 30, so the flop rule's one bin of 64 rows
	// needs 36-bit keys; the key32 entries run 16 bins of 4 rows instead.
	co := &matrix.COO{NumRows: 64, NumCols: 64}
	bo := &matrix.COO{NumRows: 64, NumCols: 1 << 30}
	r := gen.NewRNG(5)
	for e := 0; e < 64; e++ {
		co.Row = append(co.Row, r.Intn(64))
		co.Col = append(co.Col, r.Intn(64))
		co.Val = append(co.Val, 1)
		bo.Row = append(bo.Row, r.Intn(64))
		bo.Col = append(bo.Col, r.Intn(1<<30))
		bo.Val = append(bo.Val, 1)
	}
	aw, bw := co.ToCSR().ToCSC(), bo.ToCSR()
	want := matrix.ReferenceMultiply(co.ToCSR(), bw)
	pc, stp, err := MultiplyPattern(aw, bw, Options{})
	if err != nil || stp.NBins != 16 || !csrSameStructure(want, pc) {
		t.Fatalf("pattern on 30-bit columns: err %v, %d bins, same structure as Reference: %v",
			err, stp.NBins, err == nil && csrSameStructure(want, pc))
	}
	av, bv := narrowPlanes[float32](aw, bw)
	nc, nVal, stn, err := multiplyNarrow(aw, av, bw, bv, Options{})
	if err != nil || stn.NBins != 16 || !csrSameStructure(want, nc) {
		t.Fatalf("narrow on 30-bit columns: err %v, %d bins, same structure as Reference: %v",
			err, stn.NBins, err == nil && csrSameStructure(want, nc))
	}
	for i, v := range nVal {
		if float64(v) != want.Val[i] {
			t.Fatalf("narrow value %d is %v, Reference has %v", i, v, want.Val[i])
		}
	}

	// Value-plane length mismatches are shape errors, caught before any work.
	small := gen.ER(64, 4, 6)
	scsc := small.ToCSC()
	sv, _ := narrowPlanes[float32](scsc, small)
	if _, _, _, err := multiplyNarrow(scsc, sv[:1], small, sv, Options{}); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("short aVal: err = %v, want ErrShape", err)
	}
	if _, _, _, err := multiplyNarrow(scsc, sv, small, sv[:1], Options{}); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("short bVal: err = %v, want ErrShape", err)
	}

	// Pooled workspace survives alternating narrow value types.
	ws := NewWorkspace()
	opt := Options{Workspace: ws, Threads: 1}
	si, _ := narrowPlanes[int32](scsc, small)
	for rep := 0; rep < 3; rep++ {
		if _, _, _, err := multiplyNarrow(scsc, sv, small, sv, opt); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := multiplyNarrow(scsc, si, small, si, opt); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzPatternVsFloat64 pins the pattern layout's structure against the
// squeezed float64 pipeline on random shapes, including budgeted, threaded,
// and pooled variants.
func FuzzPatternVsFloat64(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		want, _, err := Multiply(a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{},
			{Threads: 3},
			{Threads: 1, Workspace: ws},
			{MemoryBudgetBytes: 256},
			{MemoryBudgetBytes: 16, Threads: 2},
		} {
			got, st, err := MultiplyPattern(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutPattern {
				t.Fatalf("pattern multiply ran %v (opt %+v)", st.Layout, opt)
			}
			if got.Val != nil {
				t.Fatal("pattern result carries values")
			}
			if !csrSameStructure(want, got) {
				t.Fatalf("pattern structure (opt %+v) differs from squeezed", opt)
			}
		}
	})
}

// FuzzNarrowVsWide pins the narrow layout, float32 and int32, against the
// exact sums of matrix.ReferenceMultiply, which stand where the wide float64
// layout's sums did before that layout went: fuzzMatrices emits small integer
// values, so every fold order and every width is exact and equality is
// bit-level. The int32 product's typed binding is held to the value layout's
// function binding of the same (+, ×) too, structure and values.
func FuzzNarrowVsWide(f *testing.F) {
	addMul := Algebra[int32]{
		Times: elementwise(func(x, y int32) int32 { return x * y }),
		Plus:  func(x, y int32) int32 { return x + y },
	}
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		want := matrix.ReferenceMultiply(a.ToCSR(), b)
		av, bv := narrowPlanes[float32](a, b)
		ai, bi := narrowPlanes[int32](a, b)
		for _, opt := range []Options{
			{},
			{Threads: 3},
			{Threads: 1, Workspace: ws},
			{MemoryBudgetBytes: 256},
			{MemoryBudgetBytes: 16, Threads: 2},
		} {
			got, vals, st, err := multiplyNarrow(a, av, b, bv, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutNarrow {
				t.Fatalf("narrow multiply ran %v (opt %+v)", st.Layout, opt)
			}
			if !csrSameStructure(want, got) {
				t.Fatalf("narrow structure (opt %+v) differs from Reference", opt)
			}
			if len(vals) != len(want.Val) {
				t.Fatalf("narrow value plane has %d entries, want %d", len(vals), len(want.Val))
			}
			for i, v := range vals {
				if float64(v) != want.Val[i] {
					t.Fatalf("narrow value[%d] = %v, want %v (opt %+v)", i, v, want.Val[i], opt)
				}
			}
			goti, ivals, _, err := multiplyNarrow(a, ai, b, bi, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !csrSameStructure(want, goti) {
				t.Fatalf("int32 structure (opt %+v) differs from Reference", opt)
			}
			for i, v := range ivals {
				if v != int32(want.Val[i]) {
					t.Fatalf("int32 value[%d] = %d, want %v (opt %+v)", i, v, want.Val[i], opt)
				}
			}
			fopt := opt
			fopt.Workspace = nil // the typed product above may alias ws
			gotf, fvals, stf, err := MultiplyGeneric(a, ai, b, bi, addMul, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if stf.Layout != LayoutGeneric || !csrSameStructure(goti, gotf) || !slices.Equal(ivals, fvals) {
				t.Fatalf("int32 through function values (%v, opt %+v) differs from the typed binding", stf.Layout, opt)
			}
		}
	})
}
