package pbspgemm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// owned is one product an engine handed out, seen through its own arrays.
type owned struct {
	c        *CSR   // its structure, values as float64 (a copy of them for T ≠ float64)
	scribble func() // overwrites every array of the product
	intact   func() bool
}

// ownedOf wraps a product: scribble writes a marker over its row pointers,
// column indices and values, and intact reports whether they still hold it.
func ownedOf[T comparable](m *Matrix[T], mark T, f func(T) float64) owned {
	return owned{
		c: &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m.ToCSR(f).Val},
		scribble: func() {
			for i := range m.RowPtr {
				m.RowPtr[i] = -1
			}
			for i := range m.ColIdx {
				m.ColIdx[i], m.Val[i] = -1, mark
			}
		},
		intact: func() bool {
			for i := range m.ColIdx {
				if m.ColIdx[i] != -1 || m.Val[i] != mark {
					return false
				}
			}
			return m.RowPtr[0] == -1 && m.RowPtr[m.NumRows] == -1
		},
	}
}

// TestEngineProductsAreCallerOwned: every product an engine
// returns is the caller's — Engine.Multiply's, one from each typed fast path of
// EngineMultiplyOver (float64, float32, int32, Boolean pattern), the generic
// layout's (a caller-assembled semiring) and MultiplyOver's, a fresh engine's,
// and the row kernel's at one worker, plain and masked, which clones its
// staging planes — though the pool hands its output arrays over instead of
// copying them. A goroutine overwrites each product
// while the same engine runs every route again: under -race any write or read
// the engine still makes to a handed-over array is reported, the later
// products must equal Reference, and the overwritten one must keep the writes.
// The "arena" routes run a cf = 1 product at one thread, the largest of all,
// so that its tuple planes are grown for it: the product is those planes.
func TestEngineProductsAreCallerOwned(t *testing.T) {
	a, b := intValued(NewER(300, 6, 1)), intValued(NewER(300, 6, 2))
	want := Reference(a, b)
	pa, pb := permutation(20000, 3), permutation(20000, 4)
	permWant := Reference(pa, pb)
	permBool := permWant.Clone()
	for i := range permBool.Val {
		permBool.Val[i] = 1
	}
	ctx := context.Background()
	e, err := NewEngine(WithAlgorithm(PB), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	custom := Semiring[float64]{Name: "custom (+, ×)",
		Plus: func(x, y float64) float64 { return x + y }, Times: func(x, y float64) float64 { return x * y }}
	id := func(v float64) float64 { return v }
	f32 := func(v float64) float32 { return float32(v) }
	i32 := func(v float64) int32 { return int32(v) }
	one := func(float64) bool { return true }
	mask := NewER(300, 6, 3)
	maskedWant := maskCSR(want, mask, false)
	boolWant := want.Clone()
	for i := range boolWant.Val {
		boolWant.Val[i] = 1
	}
	routes := []struct {
		name string
		run  func() (owned, error)
	}{
		{"Engine.Multiply", func() (owned, error) {
			res, err := e.Multiply(ctx, a, b)
			if err != nil {
				return owned{}, err
			}
			return ownedOf(Float64Matrix(res.C), -1, id), nil
		}},
		{"SPA", func() (owned, error) {
			res, err := e.Multiply(ctx, a, b, WithAlgorithm(SPA), WithThreads(1))
			if err != nil {
				return owned{}, err
			}
			return ownedOf(Float64Matrix(res.C), -1, id), nil
		}},
		{"masked", func() (owned, error) {
			c, err := e.MultiplyMasked(ctx, a, b, mask, WithThreads(1))
			if err != nil {
				return owned{}, err
			}
			return ownedOf(Float64Matrix(c), -1, id), nil
		}},
		{"float64", overRoute(e, Arithmetic(), MatrixOf(a, id), MatrixOf(b, id), true, -1, id)},
		{"float32", overRoute(e, Arithmetic32(), MatrixOf(a, f32), MatrixOf(b, f32), true, -1, func(v float32) float64 { return float64(v) })},
		{"int32", overRoute(e, ArithmeticInt32(), MatrixOf(a, i32), MatrixOf(b, i32), true, -1, func(v int32) float64 { return float64(v) })},
		{"Boolean", overRoute(e, Boolean(), MatrixOf(a, one), MatrixOf(b, one), true, false, func(bool) float64 { return 1 })},
		{"generic", overRoute(e, custom, MatrixOf(a, id), MatrixOf(b, id), false, -1, id)},
		{"arena Engine.Multiply", func() (owned, error) {
			res, err := e.Multiply(ctx, pa, pb, WithThreads(1))
			if err != nil {
				return owned{}, err
			}
			return ownedOf(Float64Matrix(res.C), -1, id), nil
		}},
		{"arena float32", overRoute(e, Arithmetic32(), MatrixOf(pa, f32), MatrixOf(pb, f32), true, -1, func(v float32) float64 { return float64(v) }, WithThreads(1))},
		{"arena Boolean", overRoute(e, Boolean(), MatrixOf(pa, one), MatrixOf(pb, one), true, false, func(bool) float64 { return 1 }, WithThreads(1))},
		{"MultiplyOver", func() (owned, error) {
			c, err := MultiplyOver(Arithmetic(), MatrixOf(a, id).ToCSC(), MatrixOf(b, id), WithAlgorithm(PB), WithThreads(2))
			if err != nil {
				return owned{}, err
			}
			return ownedOf(c, -1, id), nil
		}},
	}
	check := func(name string, got owned) {
		t.Helper()
		w := want
		switch name {
		case "Boolean":
			w = boolWant
		case "masked":
			w = maskedWant
		case "arena Engine.Multiply", "arena float32":
			w = permWant
		case "arena Boolean":
			w = permBool
		}
		if !EqualWithin(w, got.c, 0) {
			t.Fatalf("%s: product differs from Reference", name)
		}
	}
	for _, r := range routes {
		got, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		check(r.name, got)
		done := make(chan struct{})
		go func() { defer close(done); got.scribble() }()
		for _, next := range routes {
			later, err := next.run()
			if err != nil {
				t.Fatal(err)
			}
			check(next.name, later)
		}
		<-done
		if !got.intact() {
			t.Fatalf("%s: the engine wrote into a product it had handed over", r.name)
		}
	}
}

// overRoute is a route through EngineMultiplyOver over sr, on a typed fast
// path when fast is set and on the generic layout when not.
func overRoute[T comparable](e *Engine, sr Semiring[T], a, b *Matrix[T], fast bool, mark T, f func(T) float64, opts ...Option) func() (owned, error) {
	ac := a.ToCSC()
	return func() (owned, error) {
		var plan SemiringPlan
		c, err := EngineMultiplyOver(e, context.Background(), sr, ac, b, append(opts, WithSemiringPlan(&plan))...)
		if err != nil {
			return owned{}, err
		}
		if plan.Rows || plan.FastPath != fast {
			return owned{}, fmt.Errorf("%s ran the row kernel or the wrong layout: %+v", sr.Name, plan)
		}
		return ownedOf(c, mark, f), nil
	}
}

// permutation is an n×n permutation matrix with values 1–5: the product of
// two has cf = 1.
func permutation(n int, seed int64) *CSR {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	m := &CSR{NumRows: int32(n), NumCols: int32(n), RowPtr: make([]int64, n+1), ColIdx: make([]int32, n), Val: make([]float64, n)}
	for i, j := range perm {
		m.RowPtr[i+1], m.ColIdx[i], m.Val[i] = int64(i+1), int32(j), float64(i%5+1)
	}
	return m
}
