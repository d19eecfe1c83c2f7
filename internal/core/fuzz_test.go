package core

import (
	"testing"

	"pbspgemm/internal/matrix"
)

// fuzzMatrices decodes a byte string into a small A (CSC) / B (CSR) pair
// with matching inner dimension. Values are small integers (stored exactly
// in float64), so every summation order produces bit-identical results and
// the budgeted path can be held to exact equality with the single-shot path.
func fuzzMatrices(data []byte) (*matrix.CSC, *matrix.CSR, bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	rows := int32(data[0]%24) + 1
	inner := int32(data[1]%24) + 1
	cols := int32(data[2]%24) + 1
	data = data[3:]

	cooA := &matrix.COO{NumRows: rows, NumCols: inner}
	cooB := &matrix.COO{NumRows: inner, NumCols: cols}
	// Alternate entries between A and B, three bytes each.
	for i := 0; i+2 < len(data); i += 3 {
		r, c, v := data[i], data[i+1], int64(data[i+2]%7)+1
		if (i/3)%2 == 0 {
			cooA.Row = append(cooA.Row, int32(r)%rows)
			cooA.Col = append(cooA.Col, int32(c)%inner)
			cooA.Val = append(cooA.Val, float64(v))
		} else {
			cooB.Row = append(cooB.Row, int32(r)%inner)
			cooB.Col = append(cooB.Col, int32(c)%cols)
			cooB.Val = append(cooB.Val, float64(v))
		}
	}
	return cooA.ToCSR().ToCSC(), cooB.ToCSR(), true
}

// FuzzSqueezedVsWide drives random shapes through both float64 tuple layouts
// — Multiply, and MultiplyGeneric over (+, ×), the second float64 layout
// since it replaced the wide one (whence the name) — and holds each to
// matrix.ReferenceMultiply. Values are small integers (see fuzzMatrices), so
// every summation is exact. Budgeted, multi-thread and pooled variants ride
// along.
func FuzzSqueezedVsWide(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	wsSq, wsGen := NewWorkspace(), NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		want := matrix.ReferenceMultiply(a.ToCSR(), b)
		for _, opt := range []Options{
			{},
			{Threads: 3},
			{Threads: 1, Workspace: wsSq},
			{MemoryBudgetBytes: 256},
		} {
			sq, stS, err := Multiply(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if stS.Layout != LayoutSqueezed {
				t.Fatalf("Multiply ran %v (opt %+v)", stS.Layout, opt)
			}
			if !matrix.Equal(want, sq, 0) {
				t.Fatalf("squeezed output (opt %+v) differs from Reference", opt)
			}
		}
		for _, opt := range []Options{{}, {MemoryBudgetBytes: 128, Workspace: wsGen}} {
			got, st, err := multiplyGeneric(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutGeneric {
				t.Fatalf("generic entry ran %v", st.Layout)
			}
			if !matrix.Equal(want, got, 0) {
				t.Fatalf("generic output (opt %+v) differs from Reference", opt)
			}
		}
	})
}

// FuzzMultiply feeds random small CSC/CSR shapes through the unbudgeted and
// budgeted execution paths (with and without a shared workspace) and asserts
// the outputs are identical CSR, cross-checked against the reference
// accumulator.
func FuzzMultiply(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{1, 1, 1, 0, 0, 5})
	f.Add([]byte{23, 7, 19, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 16, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5, 4, 3, 2, 1})

	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		want, st, err := Multiply(a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Reference ground truth (exact: integer values, tiny sums).
		ref := matrix.ReferenceMultiply(a.ToCSR(), b)
		if !matrix.Equal(ref, want, 0) {
			t.Fatalf("single-shot differs from reference (flops=%d)", st.Flops)
		}
		for _, opt := range []Options{
			{MemoryBudgetBytes: 16},  // a bin a group
			{MemoryBudgetBytes: 256}, // a few bins a group
			{MemoryBudgetBytes: 16, Threads: 1, Workspace: ws},
			{MemoryBudgetBytes: 256, Workspace: ws},
		} {
			got, _, err := Multiply(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(want, got, 0) {
				t.Fatalf("budgeted output (opt %+v) not identical to single-shot", opt)
			}
		}
	})
}
