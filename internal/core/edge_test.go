package core

import (
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// TestGiantHypersparse multiplies 20M x 20M matrices with only a few
// hundred nonzeros: dimensions need 27-bit column ids and the bins span
// ~10K rows each, exercising the upper reaches of the key packing
// (localRow<<colBits | col must stay within 64 bits and round-trip). A 32-bit
// key would need 156 250 bins of 2^7 rows, past maxKey32Bins, so it runs the
// wide layout in the flop rule's one bin, with one local bin a thread.
func TestGiantHypersparse(t *testing.T) {
	n := int32(20_000_000)
	r := gen.NewRNG(123)
	aco := &matrix.COO{NumRows: n, NumCols: n}
	bco := &matrix.COO{NumRows: n, NumCols: n}
	// A k-regular-ish overlap structure so the product is non-empty: both
	// matrices reuse a small pool of inner indices.
	pool := make([]int32, 64)
	for i := range pool {
		pool[i] = r.Intn(n)
	}
	for e := 0; e < 400; e++ {
		k := pool[r.Intn(64)]
		aco.Row = append(aco.Row, r.Intn(n))
		aco.Col = append(aco.Col, k)
		aco.Val = append(aco.Val, r.Float64())
		bco.Row = append(bco.Row, k)
		bco.Col = append(bco.Col, r.Intn(n))
		bco.Val = append(bco.Val, r.Float64())
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	want := matrix.ReferenceMultiply(a, b)
	if want.NNZ() == 0 {
		t.Fatal("test construction produced an empty product")
	}
	ws := NewWorkspace()
	got, st, err := Multiply(a.ToCSC(), b, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutWide || st.NBins != 1 {
		t.Fatalf("%v in %d bins; want wide in 1", st.Layout, st.NBins)
	}
	if n, cap := localArenaBytes(ws), int64(par.DefaultThreads(0)*DefaultLocalBinBytes); n > cap {
		t.Fatalf("%d bytes of local bins, want at most %d", n, cap)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("giant hypersparse product differs from reference")
	}
	if st.Flops == 0 || st.NNZC != got.NNZ() {
		t.Fatalf("stats wrong: flops=%d nnzc=%d", st.Flops, st.NNZC)
	}
}

// TestWideColumnsKeyBits multiplies with a B whose column count forces the
// maximum column-bit width against a tall A, checking no key-bit overlap.
func TestWideColumnsKeyBits(t *testing.T) {
	// A: 5000 x 64, B: 64 x (2^30): colBits = 31 with Len32(2^30)... keys =
	// localRow<<31 | col; rowsPerBin keeps localRow small.
	rows := int32(5000)
	inner := int32(64)
	cols := int32(1) << 30
	r := gen.NewRNG(9)
	aco := &matrix.COO{NumRows: rows, NumCols: inner}
	bco := &matrix.COO{NumRows: inner, NumCols: cols}
	for e := 0; e < 300; e++ {
		aco.Row = append(aco.Row, r.Intn(rows))
		aco.Col = append(aco.Col, r.Intn(inner))
		aco.Val = append(aco.Val, r.Float64())
		bco.Row = append(bco.Row, r.Intn(inner))
		bco.Col = append(bco.Col, r.Intn(cols))
		bco.Val = append(bco.Val, r.Float64())
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	want := matrix.ReferenceMultiply(a, b)
	got, _, err := Multiply(a.ToCSC(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("wide-column product differs from reference")
	}
}

// TestSelfMultiplyAliasing squares a matrix passing the *same* underlying
// arrays as both operands (A as CSC, A as CSR share values): the kernel
// must not mutate its inputs.
func TestSelfMultiplyAliasing(t *testing.T) {
	a := gen.ER(256, 6, 77)
	before := a.Clone()
	acsc := a.ToCSC()
	if _, _, err := Multiply(acsc, a, Options{}); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, before, 0) {
		t.Fatal("Multiply mutated its input")
	}
	if err := acsc.Validate(); err != nil {
		t.Fatal("Multiply corrupted the CSC input")
	}
}

// TestRepeatedMultiplyStable runs the same multiplication many times to
// shake out cursor/buffer reuse bugs (each call must allocate fresh state).
func TestRepeatedMultiplyStable(t *testing.T) {
	a := gen.ER(128, 4, 5)
	acsc := a.ToCSC()
	first, _, err := Multiply(acsc, a, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, _, err := Multiply(acsc, a, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(first, got, 0) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}
