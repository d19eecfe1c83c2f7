package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/simd"
)

// layoutCase is one (input, layout-runner) cell of the flush matrix. run
// executes the product under opt and returns a comparable result: the CSR
// plus, for the narrow layout, its value plane folded back in.
type layoutCase struct {
	name string
	run  func(t *testing.T, opt Options) *matrix.CSR
}

func layoutCases(t *testing.T) []layoutCase {
	a := intValued(gen.ER(768, 8, 31))
	b := intValued(gen.ER(768, 8, 32))
	askew := intValued(gen.RMAT(9, 8, gen.Graph500Params, 33))
	bskew := intValued(gen.RMAT(9, 8, gen.Graph500Params, 34))
	acsc, askewcsc := a.ToCSC(), askew.ToCSC()
	af32, bf32 := narrowPlanes[float32](acsc, b)

	generic := func(acsc *matrix.CSC, b *matrix.CSR) func(*testing.T, Options) *matrix.CSR {
		return func(t *testing.T, opt Options) *matrix.CSR {
			c, _, err := multiplyGeneric(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	squeezed := func(acsc *matrix.CSC, b *matrix.CSR) func(*testing.T, Options) *matrix.CSR {
		return func(t *testing.T, opt Options) *matrix.CSR {
			c, st, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutSqueezed {
				t.Fatalf("squeezed run used layout %v", st.Layout)
			}
			return c
		}
	}
	return []layoutCase{
		{"wide/ER", generic(acsc, b)},
		{"wide/RMAT", generic(askewcsc, bskew)},
		{"squeezed/ER", squeezed(acsc, b)},
		{"squeezed/RMAT", squeezed(askewcsc, bskew)},
		{"pattern/ER", func(t *testing.T, opt Options) *matrix.CSR {
			c, _, err := MultiplyPattern(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"narrow-f32/ER", func(t *testing.T, opt Options) *matrix.CSR {
			c, vals, _, err := multiplyNarrow(acsc, af32, b, bf32, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Fold the value plane back into the CSR so matrix.Equal compares
			// values too (exact: integer-valued inputs).
			out := c.Clone()
			out.Val = make([]float64, len(vals))
			for i, v := range vals {
				out.Val[i] = float64(v)
			}
			return out
		}},
	}
}

// TestNTFlushBitIdentical forces the non-temporal flush path (normally gated
// on the group's tuple arena outgrowing the LLC) onto the small test inputs and
// holds every layout to exact bit-identity against one oracle per case: one
// thread, single-shot, default local bins, run before the gate is forced (so
// it flushes with plain copies). The matrix crosses what moves the flush
// schedule — thread count (where each worker's reserved ranges start),
// LocalBinBytes (64 is a sub-line request that runs at 16 tuples) and
// budgeted runs in bin groups (ranges re-planned per group).
func TestNTFlushBitIdentical(t *testing.T) {
	old := ntMinArenaBytes
	defer func() { ntMinArenaBytes = old }()
	for _, tc := range layoutCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ntMinArenaBytes = old
			want := tc.run(t, Options{Threads: 1})
			ntMinArenaBytes = 0
			for _, threads := range []int{1, 2, 3, 4, 8} {
				for _, lbb := range []int{64, 512, 4096} {
					for _, budget := range []int64{0, 64 << 10} {
						got := tc.run(t, Options{Threads: threads, LocalBinBytes: lbb, MemoryBudgetBytes: budget})
						if want.Val == nil {
							if !csrSameStructure(want, got) {
								t.Fatalf("threads=%d localBin=%d budget=%d: NT-flush structure differs from the plain-copy run",
									threads, lbb, budget)
							}
						} else if !matrix.Equal(want, got, 0) {
							t.Fatalf("threads=%d localBin=%d budget=%d: NT-flush result differs from the plain-copy run",
								threads, lbb, budget)
						}
					}
				}
			}
		})
	}
}

// TestStatsKernelReported: Stats.Kernel names the build's kernel set.
func TestStatsKernelReported(t *testing.T) {
	a := gen.ER(256, 4, 41)
	_, st, err := Multiply(a.ToCSC(), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernel != simd.Level() {
		t.Fatalf("Kernel = %q, want %q", st.Kernel, simd.Level())
	}
}

// TestNTFlushNeverMovesPointerValues: the non-temporal flush is a raw byte
// copy with no GC write barriers, so the generic layout may take it for its
// value plane only for a V that holds no pointers. A pointer-valued (+, ×) runs with the NT gate forced
// open while a second goroutine collects continuously — torn or unbarriered
// pointer words in the tuple arena would abort the process ("found bad pointer
// in Go heap") — and must equal Multiply's product at every thread count and
// budget.
func TestNTFlushNeverMovesPointerValues(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want bool
	}{
		{reflect.TypeFor[float64](), true}, {reflect.TypeFor[[3]float32](), true}, {reflect.TypeFor[uintptr](), true},
		{reflect.TypeFor[struct {
			a int8
			b [2]complex64
		}](), true}, {reflect.TypeFor[[0]*int](), true},
		{reflect.TypeFor[*float64](), false}, {reflect.TypeFor[string](), false}, {reflect.TypeFor[any](), false},
		{reflect.TypeFor[[]int](), false}, {reflect.TypeFor[map[int]int](), false}, {reflect.TypeFor[func()](), false},
		{reflect.TypeFor[chan int](), false}, {reflect.TypeFor[unsafe.Pointer](), false},
		{reflect.TypeFor[[2]struct {
			x float64
			p *int
		}](), false},
	} {
		if got := pointerFree(tc.typ); got != tc.want {
			t.Errorf("pointerFree(%v) = %v, want %v", tc.typ, got, tc.want)
		}
	}

	old := ntMinArenaBytes
	ntMinArenaBytes = 0
	defer func() { ntMinArenaBytes = old }()
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); <-done }()

	a := intValued(gen.RMAT(9, 8, gen.Graph500Params, 35))
	acsc := a.ToCSC()
	want, _, err := Multiply(acsc, a, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	box := func(vals []float64) []*float64 {
		out := make([]*float64, len(vals))
		for i, v := range vals {
			out[i] = &v
		}
		return out
	}
	alg := Algebra[*float64]{
		Times: elementwise(func(x, y *float64) *float64 { z := *x * *y; return &z }),
		Plus:  func(x, y *float64) *float64 { z := *x + *y; return &z },
	}
	ws := NewWorkspace()
	for _, threads := range []int{1, 4} {
		for _, budget := range []int64{0, 64 << 10} {
			c, vals, _, err := MultiplyGeneric(acsc, box(acsc.Val), a, box(a.Val), alg,
				Options{Threads: threads, MemoryBudgetBytes: budget, LocalBinBytes: 64, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !csrSameStructure(want, c) {
				t.Fatalf("threads=%d budget=%d: structure differs", threads, budget)
			}
			for i, p := range vals {
				if *p != want.Val[i] {
					t.Fatalf("threads=%d budget=%d: value %d = %v, want %v", threads, budget, i, *p, want.Val[i])
				}
			}
		}
	}
	if valuesOf[*float64](ws).flat || !valuesOf[float64](NewWorkspace()).flat {
		t.Fatal("flat must be false for *float64 and true for float64")
	}
}
