package pbspgemm

import (
	"context"
	"slices"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// keyWidthPair is 8192 × 64 · 64 × 2^20 with small integer values, so every
// layout's sums are exact: 20 column bits, and a local row takes 13 bits in
// one bin, 12 in two.
func keyWidthPair() (a, b *CSR) {
	r := gen.NewRNG(32)
	random := func(rows, cols int32, perRow int) *CSR {
		m := &matrix.COO{NumRows: rows, NumCols: cols}
		for i := range rows {
			for range perRow {
				m.Row, m.Col = append(m.Row, i), append(m.Col, r.Intn(cols))
				m.Val = append(m.Val, float64(1+r.Intn(3)))
			}
		}
		return m.ToCSR()
	}
	return random(1<<13, 64, 2), random(64, 1<<20, 32)
}

// TestKeyWidthBoundary32And33 takes the requested packed key across 32 bits
// with an explicit bin count (the geometry is otherwise the same product):
// rowShift + colBits is 12 + 20 = 32 at two bins and would be 13 + 20 = 33 at
// one, so a one-bin request is raised to two. Every entry point runs its key32
// layout at two bins either way: the float64 product equals Reference, the
// pattern product has its structure, the narrow product its exact integer
// sums, and so does an Auto call, whichever kernel it picks.
func TestKeyWidthBoundary32And33(t *testing.T) {
	a, b := keyWidthPair()
	want := Reference(a, b)
	aCSC := a.ToCSC()
	aVal, bVal := make([]float32, len(aCSC.Val)), make([]float32, len(b.Val))
	for i, v := range aCSC.Val {
		aVal[i] = float32(v)
	}
	for i, v := range b.Val {
		bVal[i] = float32(v)
	}
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ nbins, keyBits int }{{2, 32}, {1, 33}} {
		opt := core.Options{NBins: tc.nbins, Threads: 2}
		c, st, err := core.Multiply(aCSC, b, opt)
		if err != nil {
			t.Fatalf("%d bits: core.Multiply: %v", tc.keyBits, err)
		}
		if st.Layout != LayoutSqueezed || st.NBins != 2 || !EqualWithin(c, want, 0) {
			t.Fatalf("%d bits: core.Multiply ran %v in %d bins (want squeezed in 2), equal to Reference: %v",
				tc.keyBits, st.Layout, st.NBins, EqualWithin(c, want, 0))
		}

		pc, pst, err := core.MultiplyPattern(aCSC, b, opt)
		if err != nil || pst.NBins != 2 {
			t.Fatalf("%d bits: pattern ran %d bins, err %v", tc.keyBits, pst.NBins, err)
		}
		nc, nVal, nst, err := core.MultiplyNarrow(aCSC, aVal, b, bVal, opt)
		if err != nil || nst.NBins != 2 {
			t.Fatalf("%d bits: narrow ran %d bins, err %v", tc.keyBits, nst.NBins, err)
		}
		for name, s := range map[string]*CSR{"pattern": pc, "narrow": nc} {
			if !slices.Equal(s.RowPtr, want.RowPtr) || !slices.Equal(s.ColIdx, want.ColIdx) {
				t.Fatalf("%d bits: %s structure differs from Reference", tc.keyBits, name)
			}
		}
		for i, v := range nVal {
			if float64(v) != want.Val[i] {
				t.Fatalf("%d bits: narrow value %d is %v, Reference has %v", tc.keyBits, i, v, want.Val[i])
			}
		}

		res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto), WithNBins(tc.nbins))
		if err != nil {
			t.Fatalf("%d bits: Auto: %v", tc.keyBits, err)
		}
		if !EqualWithin(res.C, want, 0) || res.Algorithm == PB && res.PB.Layout != LayoutSqueezed {
			t.Fatalf("%d bits: Auto (%v) equal to Reference: %v, stats %+v",
				tc.keyBits, res.Algorithm, EqualWithin(res.C, want, 0), res.PB)
		}
	}
}

// TestPastBinCapRunsGroups: a product whose 32-bit key needs 4 097 bins —
// 2^22 + 1 rows against 2^22 columns, bins of at most 2^10 rows — is past
// core's bin cap, so PB runs the squeezed layout in two bin groups, and one
// row fewer in one; the planner prices both at 12 B a tuple.
func TestPastBinCapRunsGroups(t *testing.T) {
	r := gen.NewRNG(41)
	product := func(rows int32) (a, b *CSR) {
		ao := &matrix.COO{NumRows: rows, NumCols: 64}
		bo := &matrix.COO{NumRows: 64, NumCols: 1 << 22}
		for range 400 {
			ao.Row, ao.Col = append(ao.Row, r.Intn(rows)), append(ao.Col, r.Intn(64))
			ao.Val = append(ao.Val, float64(1+r.Intn(3)))
			bo.Row, bo.Col = append(bo.Row, r.Intn(64)), append(bo.Col, r.Intn(1<<22))
			bo.Val = append(bo.Val, float64(1+r.Intn(3)))
		}
		return ao.ToCSR(), bo.ToCSR()
	}
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rows         int32
		bins, groups int
	}{{1 << 22, 4096, 1}, {1<<22 + 1, 4097, 2}} {
		a, b := product(tc.rows)
		want := Reference(a, b)
		plan, err := eng.Plan(context.Background(), a, b, WithAlgorithm(PB))
		if err != nil {
			t.Fatal(err)
		}
		if out := (int64(tc.rows)+1)*8 + plan.EstNNZC*12; plan.Chosen != PB || plan.PredictedFootprintBytes != plan.Flops*12+out {
			t.Fatalf("%d rows: planned %v with %d bytes, want PB with %d", tc.rows, plan.Chosen,
				plan.PredictedFootprintBytes, plan.Flops*12+out)
		}
		res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(PB))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.PB; st.Layout != LayoutSqueezed || st.NBins != tc.bins || st.NGroups != tc.groups || !EqualWithin(res.C, want, 0) {
			t.Fatalf("%d rows: PB ran %v in %d bins, %d groups (want squeezed in %d, %d), equal to Reference: %v",
				tc.rows, st.Layout, st.NBins, st.NGroups, tc.bins, tc.groups, EqualWithin(res.C, want, 0))
		}
	}
}
