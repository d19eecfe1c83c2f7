package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// multiplyCSR is a test convenience: run PB-SpGEMM on two CSR inputs.
func multiplyCSR(t testing.TB, a, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats) {
	t.Helper()
	c, st, err := Multiply(a.ToCSC(), b, opt)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	return c, st
}

func TestMultiplyMatchesReferenceER(t *testing.T) {
	for _, tc := range []struct {
		n int32
		d int
	}{
		{16, 2}, {64, 4}, {256, 8}, {1024, 4}, {2048, 2},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.d), func(t *testing.T) {
			a := gen.ER(tc.n, tc.d, 1)
			b := gen.ER(tc.n, tc.d, 2)
			want := matrix.ReferenceMultiply(a, b)
			got, st := multiplyCSR(t, a, b, Options{})
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid output: %v", err)
			}
			if !matrix.Equal(want, got, 1e-9) {
				t.Fatalf("PB result differs from reference (n=%d d=%d)", tc.n, tc.d)
			}
			if st.Flops != matrix.FlopsCSR(a, b) {
				t.Errorf("stats flops %d != %d", st.Flops, matrix.FlopsCSR(a, b))
			}
			if st.NNZC != got.NNZ() {
				t.Errorf("stats nnzC %d != %d", st.NNZC, got.NNZ())
			}
		})
	}
}

func TestMultiplyMatchesReferenceRMAT(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 7)
	b := gen.RMAT(10, 8, gen.Graph500Params, 8)
	want := matrix.ReferenceMultiply(a, b)
	got, _ := multiplyCSR(t, a, b, Options{})
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("PB result differs from reference on RMAT input")
	}
}

func TestMultiplyRectangular(t *testing.T) {
	// A is 64x128, B is 128x32 — exercises m != k != n and colBits for a
	// non-power-of-two-ish shape.
	aco := &matrix.COO{NumRows: 64, NumCols: 128}
	bco := &matrix.COO{NumRows: 128, NumCols: 32}
	r := gen.NewRNG(3)
	for e := 0; e < 500; e++ {
		aco.Row = append(aco.Row, r.Intn(64))
		aco.Col = append(aco.Col, r.Intn(128))
		aco.Val = append(aco.Val, r.Float64())
		bco.Row = append(bco.Row, r.Intn(128))
		bco.Col = append(bco.Col, r.Intn(32))
		bco.Val = append(bco.Val, r.Float64())
	}
	a, b := aco.ToCSR(), bco.ToCSR()
	want := matrix.ReferenceMultiply(a, b)
	got, _ := multiplyCSR(t, a, b, Options{})
	if !matrix.Equal(want, got, 1e-9) {
		t.Fatal("PB result differs from reference on rectangular input")
	}
}

func TestMultiplyShapeMismatch(t *testing.T) {
	a := gen.ER(32, 2, 1).ToCSC()
	b := gen.ER(64, 2, 2)
	if _, _, err := Multiply(a, b, Options{}); err == nil {
		t.Fatal("expected shape error, got nil")
	}
}

func TestMultiplyEmptyInputs(t *testing.T) {
	empty := matrix.NewCSR(32, 32, 0)
	a := gen.ER(32, 4, 1)
	for name, pair := range map[string][2]*matrix.CSR{
		"empty_A":    {empty, a},
		"empty_B":    {a, empty},
		"empty_both": {empty, empty},
	} {
		t.Run(name, func(t *testing.T) {
			got, st := multiplyCSR(t, pair[0], pair[1], Options{})
			if got.NNZ() != 0 {
				t.Fatalf("expected empty result, got %d nnz", got.NNZ())
			}
			if st.Flops != 0 {
				t.Fatalf("expected 0 flops, got %d", st.Flops)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid empty output: %v", err)
			}
		})
	}
}

func TestMultiplyIdentity(t *testing.T) {
	n := int32(257)
	id := &matrix.COO{NumRows: n, NumCols: n}
	for i := int32(0); i < n; i++ {
		id.Row = append(id.Row, i)
		id.Col = append(id.Col, i)
		id.Val = append(id.Val, 1)
	}
	eye := id.ToCSR()
	a := gen.ER(n, 5, 11)
	got, _ := multiplyCSR(t, a, eye, Options{})
	if !matrix.Equal(a, got, 0) {
		t.Fatal("A*I != A")
	}
	got2, _ := multiplyCSR(t, eye, a, Options{})
	if !matrix.Equal(a, got2, 0) {
		t.Fatal("I*A != A")
	}
}

func TestOptionsSweepAgree(t *testing.T) {
	a := gen.ER(512, 8, 21)
	b := gen.ER(512, 8, 22)
	want := matrix.ReferenceMultiply(a, b)
	for _, nbins := range []int{1, 2, 3, 7, 64, 511, 512} {
		for _, lbb := range []int{16, 64, 512, 4096} {
			for _, threads := range []int{1, 2, 8} {
				opt := Options{NBins: nbins, LocalBinBytes: lbb, Threads: threads}
				got, st := multiplyCSR(t, a, b, opt)
				if !matrix.Equal(want, got, 1e-9) {
					t.Fatalf("mismatch at nbins=%d localBin=%d threads=%d", nbins, lbb, threads)
				}
				if st.NBins > 512 {
					t.Fatalf("nbins %d exceeds rows", st.NBins)
				}
			}
		}
	}
}

func TestMultiplySingleColumnAndRow(t *testing.T) {
	// Outer product of a column vector and a row vector: dense rank-1 result.
	n := int32(100)
	colV := &matrix.COO{NumRows: n, NumCols: 1}
	rowV := &matrix.COO{NumRows: 1, NumCols: n}
	for i := int32(0); i < n; i++ {
		colV.Row = append(colV.Row, i)
		colV.Col = append(colV.Col, 0)
		colV.Val = append(colV.Val, float64(i+1))
		rowV.Row = append(rowV.Row, 0)
		rowV.Col = append(rowV.Col, i)
		rowV.Val = append(rowV.Val, 2)
	}
	a, b := colV.ToCSR(), rowV.ToCSR()
	got, st := multiplyCSR(t, a, b, Options{})
	if got.NNZ() != int64(n)*int64(n) {
		t.Fatalf("rank-1 product nnz = %d, want %d", got.NNZ(), int64(n)*int64(n))
	}
	if st.CF != 1 {
		t.Fatalf("rank-1 cf = %v, want 1", st.CF)
	}
	for i := int32(0); i < n; i++ {
		for p := got.RowPtr[i]; p < got.RowPtr[i+1]; p++ {
			want := float64(i+1) * 2
			if math.Abs(got.Val[p]-want) > 1e-12 {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, got.ColIdx[p], got.Val[p], want)
			}
		}
	}
}

func TestQuickPBEqualsReference(t *testing.T) {
	// Property: for arbitrary small random matrices, PB == reference.
	f := func(seedA, seedB uint64, dims [3]uint8, nnzSel uint16) bool {
		m := int32(dims[0]%60) + 4
		k := int32(dims[1]%60) + 4
		n := int32(dims[2]%60) + 4
		nnz := int(nnzSel%512) + 1
		r := gen.NewRNG(seedA)
		aco := &matrix.COO{NumRows: m, NumCols: k}
		for e := 0; e < nnz; e++ {
			aco.Row = append(aco.Row, r.Intn(m))
			aco.Col = append(aco.Col, r.Intn(k))
			aco.Val = append(aco.Val, r.Float64())
		}
		r2 := gen.NewRNG(seedB)
		bco := &matrix.COO{NumRows: k, NumCols: n}
		for e := 0; e < nnz; e++ {
			bco.Row = append(bco.Row, r2.Intn(k))
			bco.Col = append(bco.Col, r2.Intn(n))
			bco.Val = append(bco.Val, r2.Float64())
		}
		a, b := aco.ToCSR(), bco.ToCSR()
		want := matrix.ReferenceMultiply(a, b)
		got, _, err := Multiply(a.ToCSC(), b, Options{NBins: int(seedA%8) + 1})
		if err != nil {
			return false
		}
		return matrix.Equal(want, got, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsBytesModel(t *testing.T) {
	a := gen.ER(256, 4, 5)
	b := gen.ER(256, 4, 6)
	_, st := multiplyCSR(t, a, b, Options{})
	// Small square ER: the key geometry always allows squeezing, so the
	// traffic model must run at 12 bytes per expanded tuple.
	if st.Layout != LayoutSqueezed || st.TupleBytes != SqueezedTupleBytes {
		t.Fatalf("layout = %v tupleBytes = %d, want squeezed/12", st.Layout, st.TupleBytes)
	}
	// Executed loads+stores (STREAM's counting): A streamed once, then one
	// B element load (ColIdx + float64 = 12 B) and one tuple store per FLOP.
	wantExpand := matrix.BytesPerTuple*a.NNZ() + (12+st.TupleBytes)*st.Flops
	if st.ExpandBytes != wantExpand {
		t.Errorf("ExpandBytes = %d, want %d", st.ExpandBytes, wantExpand)
	}
	// The fuse phase reads the expanded tuples back once.
	if st.FusedBytes != st.TupleBytes*st.Flops {
		t.Errorf("FusedBytes = %d, want %d", st.FusedBytes, st.TupleBytes*st.Flops)
	}
	if st.GFLOPS() <= 0 || st.ExpandGBs() <= 0 || st.FuseGBs() <= 0 || st.OverallGBs() <= 0 {
		t.Error("expected positive throughput metrics")
	}
	if st.CF < 1 {
		t.Errorf("cf = %v, want >= 1", st.CF)
	}

	// The generic layout reports a 4-byte key plus its own value type.
	_, stg, err := multiplyGeneric(a.ToCSC(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stg.Layout != LayoutGeneric || stg.TupleBytes != SqueezedTupleBytes {
		t.Fatalf("generic over float64: layout = %v tupleBytes = %d", stg.Layout, stg.TupleBytes)
	}
	if stg.FusedBytes != stg.TupleBytes*stg.Flops {
		t.Errorf("generic FusedBytes = %d, want %d", stg.FusedBytes, stg.TupleBytes*stg.Flops)
	}
	ab, bb := make([]bool, a.NNZ()), make([]bool, b.NNZ())
	or := func(x, y bool) bool { return x || y }
	_, _, stb, err := MultiplyGeneric(a.ToCSC(), ab, b, bb, Algebra[bool]{Times: elementwise(or), Plus: or}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stb.Layout != LayoutGeneric || stb.TupleBytes != 5 || stb.FusedBytes != 5*stb.Flops {
		t.Fatalf("generic over bool: layout = %v tupleBytes = %d FusedBytes = %d", stb.Layout, stb.TupleBytes, stb.FusedBytes)
	}
}
