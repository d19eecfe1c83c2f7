package pbspgemm

import (
	"context"
	"errors"
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

// TestKeyWidthBoundary32And33 takes the packed key across 32 bits with an
// explicit bin count (the geometry is otherwise the same product):
// rowShift + colBits is 12 + 20 = 32 at two bins and 13 + 20 = 33 at one. At
// 32 every layout fits; at 33 the float64 pipeline runs wide and the 32-bit
// key entry points refuse. Every product that runs equals Reference, and the
// planner's layout predictions agree with the layout that ran.
func TestKeyWidthBoundary32And33(t *testing.T) {
	a, b := keyWidthPair()
	want := Reference(a, b)
	aCSC, flops := a.ToCSC(), Flops(a, b)
	eng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nbins, keyBits int
		layout         TupleLayout
	}{{2, 32, LayoutSqueezed}, {1, 33, LayoutWide}} {
		opt := core.Options{NBins: tc.nbins, Threads: 2}
		c, st, err := core.Multiply(aCSC, b, opt)
		if err != nil {
			t.Fatalf("%d bits: core.Multiply: %v", tc.keyBits, err)
		}
		if st.Layout != tc.layout || !EqualWithin(c, want, 0) {
			t.Fatalf("%d bits: core.Multiply ran %v (want %v), equal to Reference: %v",
				tc.keyBits, st.Layout, tc.layout, EqualWithin(c, want, 0))
		}
		if fits := core.Key32Fits(a.NumRows, b.NumCols, flops, opt); fits != (st.Layout != LayoutWide) {
			t.Fatalf("%d bits: Key32Fits %v, but the run took %v", tc.keyBits, fits, st.Layout)
		}
		if l := core.PlanLayout(a.NumRows, b.NumCols, flops, opt); l != st.Layout {
			t.Fatalf("%d bits: PlanLayout %v, but the run took %v", tc.keyBits, l, st.Layout)
		}

		pc, _, perr := core.MultiplyPattern(aCSC, b, opt)
		aVal, bVal := make([]float32, len(aCSC.Val)), make([]float32, len(b.Val))
		for i, v := range aCSC.Val {
			aVal[i] = float32(v)
		}
		for i, v := range b.Val {
			bVal[i] = float32(v)
		}
		nc, nVal, _, nerr := core.MultiplyNarrow(aCSC, aVal, b, bVal, opt)
		if tc.layout == LayoutWide {
			if !errors.Is(perr, core.ErrKeyWidth) || !errors.Is(nerr, core.ErrKeyWidth) {
				t.Fatalf("%d bits: pattern err %v, narrow err %v, want ErrKeyWidth", tc.keyBits, perr, nerr)
			}
		} else {
			if perr != nil || nerr != nil {
				t.Fatalf("%d bits: pattern err %v, narrow err %v", tc.keyBits, perr, nerr)
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
		}

		res, err := eng.Multiply(context.Background(), a, b, WithAlgorithm(Auto), WithNBins(tc.nbins))
		if err != nil {
			t.Fatalf("%d bits: Auto: %v", tc.keyBits, err)
		}
		if !EqualWithin(res.C, want, 0) || res.Plan.OuterLayout != tc.layout {
			t.Fatalf("%d bits: Auto (%v) equal to Reference: %v; planned layout %v, want %v",
				tc.keyBits, res.Algorithm, EqualWithin(res.C, want, 0), res.Plan.OuterLayout, tc.layout)
		}
	}
}
