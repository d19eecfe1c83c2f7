package baseline

import (
	"fmt"
	"testing"
	"testing/quick"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// algo adapts each baseline to a common test signature.
type algo struct {
	name string
	fn   func(a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error)
}

func algos() []algo {
	return []algo{
		{"Heap", Heap},
		{"Hash", Hash},
		{"HashVec", HashVec},
		{"SPA", SPA},
	}
}

func TestBaselinesMatchReference(t *testing.T) {
	inputs := []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER_small", gen.ER(64, 4, 1), gen.ER(64, 4, 2)},
		{"ER_mid", gen.ER(512, 8, 3), gen.ER(512, 8, 4)},
		{"RMAT", gen.RMAT(9, 8, gen.Graph500Params, 5), gen.RMAT(9, 8, gen.Graph500Params, 6)},
		{"banded", gen.Banded(300, 4, 7), gen.Banded(300, 4, 8)},
	}
	for _, in := range inputs {
		want := matrix.ReferenceMultiply(in.a, in.b)
		for _, al := range algos() {
			t.Run(in.name+"/"+al.name, func(t *testing.T) {
				got, st, err := al.fn(in.a, in.b, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("invalid output: %v", err)
				}
				if !matrix.Equal(want, got, 1e-9) {
					t.Fatal("result differs from reference")
				}
				if st.Flops != matrix.FlopsCSR(in.a, in.b) {
					t.Errorf("flops %d, want %d", st.Flops, matrix.FlopsCSR(in.a, in.b))
				}
				if st.NNZC != want.NNZ() {
					t.Errorf("nnzC %d, want %d", st.NNZC, want.NNZ())
				}
			})
		}
	}
}

func TestBaselinesThreadCounts(t *testing.T) {
	a := gen.ER(400, 6, 9)
	b := gen.ER(400, 6, 10)
	want := matrix.ReferenceMultiply(a, b)
	for _, al := range algos() {
		for _, threads := range []int{1, 2, 3, 16} {
			t.Run(fmt.Sprintf("%s/t%d", al.name, threads), func(t *testing.T) {
				got, _, err := al.fn(a, b, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(want, got, 1e-9) {
					t.Fatal("result differs from reference")
				}
			})
		}
	}
}

func TestBaselinesShapeMismatch(t *testing.T) {
	a := gen.ER(32, 2, 1)
	b := gen.ER(64, 2, 2)
	for _, al := range algos() {
		if _, _, err := al.fn(a, b, Options{}); err == nil {
			t.Errorf("%s: expected shape error", al.name)
		}
	}
}

func TestBaselinesEmpty(t *testing.T) {
	empty := matrix.NewCSR(50, 50, 0)
	a := gen.ER(50, 3, 1)
	for _, al := range algos() {
		got, st, err := al.fn(empty, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != 0 || st.Flops != 0 {
			t.Errorf("%s: expected empty product", al.name)
		}
		got, _, err = al.fn(a, empty, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != 0 {
			t.Errorf("%s: expected empty product (A*0)", al.name)
		}
	}
}

func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(seedA, seedB uint64, nSel uint8, nnzSel uint16) bool {
		n := int32(nSel%100) + 4
		nnz := int(nnzSel%600) + 1
		r := gen.NewRNG(seedA)
		aco := &matrix.COO{NumRows: n, NumCols: n}
		bco := &matrix.COO{NumRows: n, NumCols: n}
		r2 := gen.NewRNG(seedB)
		for e := 0; e < nnz; e++ {
			aco.Row = append(aco.Row, r.Intn(n))
			aco.Col = append(aco.Col, r.Intn(n))
			aco.Val = append(aco.Val, r.Float64())
			bco.Row = append(bco.Row, r2.Intn(n))
			bco.Col = append(bco.Col, r2.Intn(n))
			bco.Val = append(bco.Val, r2.Float64())
		}
		a, b := aco.ToCSR(), bco.ToCSR()
		want := matrix.ReferenceMultiply(a, b)
		for _, al := range algos() {
			got, _, err := al.fn(a, b, Options{})
			if err != nil || !matrix.Equal(want, got, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHashVecGroupProbeWrapsAround(t *testing.T) {
	// A row whose columns all hash near the table end forces the grouped
	// probe to wrap; 16 distinct columns in a size-16 table guarantees full
	// occupancy of at least one group boundary.
	n := int32(16)
	aco := &matrix.COO{NumRows: 1, NumCols: n}
	bco := &matrix.COO{NumRows: n, NumCols: n}
	aco.Row = append(aco.Row, 0)
	aco.Col = append(aco.Col, 0)
	aco.Val = append(aco.Val, 1)
	for j := int32(0); j < n; j++ {
		bco.Row = append(bco.Row, 0)
		bco.Col = append(bco.Col, j)
		bco.Val = append(bco.Val, float64(j))
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	want := matrix.ReferenceMultiply(a, b)
	got, _, err := HashVec(a, b, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(want, got, 0) {
		t.Fatal("HashVec wrap-around result incorrect")
	}
}
