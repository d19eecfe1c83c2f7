package semiring

import (
	"errors"
	"strings"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// opaque returns sr with both functions wrapped in closures, which the op
// table cannot see through: the generic layout through ⊗ and ⊕, the oracle
// the typed pipelines are checked against.
func opaque[T any](sr Semiring[T]) Semiring[T] {
	plus, times := sr.Plus, sr.Times
	sr.Plus = func(a, b T) T { return plus(a, b) }
	sr.Times = func(a, b T) T { return times(a, b) }
	return sr
}

// typedStock reports whether sr's (⊕, ⊗) are, by their code, those of a stock
// semiring with a typed tuple layout.
func typedStock[T any](sr Semiring[T]) bool {
	for _, s := range []any{Arithmetic(), Arithmetic32(), ArithmeticInt32(), Boolean()} {
		if s, ok := s.(Semiring[T]); ok && pair(s.Plus, s.Times) == pair(sr.Plus, sr.Times) {
			return true
		}
	}
	return false
}

// intCSR rewrites values to small integers so float32, int32, and float64
// folds are all exact.
func intCSR(m *matrix.CSR) *matrix.CSR {
	for i := range m.Val {
		m.Val[i] = float64(i%7 + 1)
	}
	return m
}

func sameStructureG[T any](a, b *CSRg[T]) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
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

// TestFastPathPlanReporting pins the dispatch rule: Boolean lands on the
// pattern layout, float32/int32 arithmetic on narrow, float64 on the layout
// core picks; custom semirings, masked calls, and false-valued booleans
// report the generic fallback with a reason.
func TestFastPathPlanReporting(t *testing.T) {
	a := intCSR(gen.ER(400, 6, 31))
	b := intCSR(gen.ER(400, 6, 32))

	// Boolean → pattern.
	ba := FromCSR(a, func(float64) bool { return true }).ToCSC()
	bb := FromCSR(b, func(float64) bool { return true })
	var p Plan
	cb, err := MultiplyOpts(Boolean(), ba, bb, Options{Plan: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutPattern {
		t.Fatalf("boolean plan = %+v, want pattern fast path", p)
	}
	ref, err := MultiplyOpts(opaque(Boolean()), ba, bb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructureG(ref, cb) {
		t.Fatal("pattern fast path structure differs from generic boolean")
	}
	for i, v := range cb.Val {
		if !v {
			t.Fatalf("fast-path boolean value[%d] is false", i)
		}
	}

	// float32 → narrow.
	fa := FromCSR(a, func(v float64) float32 { return float32(v) }).ToCSC()
	fb := FromCSR(b, func(v float64) float32 { return float32(v) })
	cf, err := MultiplyOpts(Arithmetic32(), fa, fb, Options{Plan: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutNarrow {
		t.Fatalf("float32 plan = %+v, want narrow fast path", p)
	}
	reff, err := MultiplyOpts(opaque(Arithmetic32()), fa, fb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructureG(reff, cf) {
		t.Fatal("narrow fast path structure differs from generic float32")
	}
	for i := range cf.Val {
		if cf.Val[i] != reff.Val[i] {
			t.Fatalf("narrow value[%d] = %v, generic oracle %v", i, cf.Val[i], reff.Val[i])
		}
	}

	// int32 → narrow.
	ia := FromCSR(a, func(v float64) int32 { return int32(v) }).ToCSC()
	ib := FromCSR(b, func(v float64) int32 { return int32(v) })
	if _, err := MultiplyOpts(ArithmeticInt32(), ia, ib, Options{Plan: &p}); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutNarrow {
		t.Fatalf("int32 plan = %+v, want narrow fast path", p)
	}

	// float64 → whatever core picks (squeezed here).
	da := FromCSR(a, func(v float64) float64 { return v }).ToCSC()
	db := FromCSR(b, func(v float64) float64 { return v })
	if _, err := MultiplyOpts(Arithmetic(), da, db, Options{Plan: &p}); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath {
		t.Fatalf("float64 plan = %+v, want fast path", p)
	}

	// Fallbacks, each with a reason.
	if _, err := MultiplyOpts(opaque(Arithmetic()), da, db, Options{Plan: &p}); err != nil {
		t.Fatal(err)
	}
	if p.FastPath || p.Reason == "" {
		t.Fatalf("custom semiring plan = %+v, want reasoned fallback", p)
	}
	if _, err := MultiplyOpts(Arithmetic(), da, db, Options{Plan: &p, Mask: a}); err != nil {
		t.Fatal(err)
	}
	if p.FastPath || p.Reason == "" {
		t.Fatalf("masked plan = %+v, want reasoned fallback", p)
	}
	// A stored false value makes the pattern layout unsound: fall back.
	bf := FromCSR(b, func(float64) bool { return true })
	bf.Val[0] = false
	if _, err := MultiplyOpts(Boolean(), ba, bf, Options{Plan: &p}); err != nil {
		t.Fatal(err)
	}
	if p.FastPath || p.Reason == "" {
		t.Fatalf("false-valued boolean plan = %+v, want reasoned fallback", p)
	}
}

// TestFastPathWideColumns: a 30-bit column space leaves two bits of local
// row in a 32-bit packed key, so the narrow layout runs the product in bins of
// four rows instead of declining it.
func TestFastPathWideColumns(t *testing.T) {
	cols := int32(1) << 30
	a := &CSRg[int32]{NumRows: 8, NumCols: 8,
		RowPtr: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
		ColIdx: []int32{0, 1, 2, 3, 4, 5, 6, 7},
		Val:    []int32{1, 1, 1, 1, 1, 1, 1, 1}}
	b := &CSRg[int32]{NumRows: 8, NumCols: cols,
		RowPtr: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
		ColIdx: []int32{0, 1 << 29, 2, 3, 4, 5, 6, cols - 1},
		Val:    []int32{2, 2, 2, 2, 2, 2, 2, 2}}
	var p Plan
	c, err := MultiplyOpts(ArithmeticInt32(), a.ToCSC(), b, Options{Plan: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutNarrow || p.Stats.NBins != 2 {
		t.Fatalf("plan = %+v, want the narrow fast path in 2 bins", p)
	}
	if c.NNZ() != 8 {
		t.Fatalf("product nnz = %d, want 8", c.NNZ())
	}
	for i, v := range c.Val {
		if v != 2 {
			t.Fatalf("value[%d] = %d, want 2", i, v)
		}
	}
}

// TestFastPathCancelsMidExpand: a typed fast path hands Cancel to
// internal/core, which polls it every 64 Ki expanded tuples — so a Boolean
// product cancelled at its third poll (the first is the boundary after
// planning, the second the first one inside expand) stops there, and the
// error names the phase it interrupted.
func TestFastPathCancelsMidExpand(t *testing.T) {
	m := gen.RMAT(10, 16, gen.Graph500Params, 33)
	truth := func(float64) bool { return true }
	a, b := FromCSR(m, truth).ToCSC(), FromCSR(m, truth)
	if flops := Flops(a, b); flops < 4<<16 {
		t.Fatalf("only %d flops: expand would finish before its second poll", flops)
	}
	stop := errors.New("stop")
	polls := 0
	_, err := MultiplyOpts(Boolean(), a, b, Options{Threads: 1, Cancel: func() error {
		if polls++; polls >= 3 {
			return stop
		}
		return nil
	}})
	if !errors.Is(err, stop) || !strings.Contains(err.Error(), "expand phase") {
		t.Fatalf("got %v after %d polls, want the Cancel error wrapped with the expand phase", err, polls)
	}
	if polls != 3 {
		t.Fatalf("%d polls: the product kept running after its cancellation", polls)
	}
}

// TestMaskedAndBooleanShareAWorkspace: the row kernel's scratch and the Boolean
// fast path's all-true plane sit in separate workspace slots, so a pooled
// workspace alternating the two keeps both warm instead of each call replacing
// the other's.
func TestMaskedAndBooleanShareAWorkspace(t *testing.T) {
	m := gen.RMAT(8, 8, gen.Graph500Params, 34)
	id := func(v float64) float64 { return v }
	truth := func(float64) bool { return true }
	af, bf := FromCSR(m, id).ToCSC(), FromCSR(m, id)
	ab, bb := FromCSR(m, truth).ToCSC(), FromCSR(m, truth)
	ws := core.NewWorkspace()
	round := func() (any, *bool) {
		if _, err := MultiplyOpts(Arithmetic(), af, bf, Options{Threads: 1, Workspace: ws, Mask: m}); err != nil {
			t.Fatal(err)
		}
		if _, err := MultiplyOpts(Boolean(), ab, bb, Options{Threads: 1, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		return ws.Aux, &ws.PatternVals[0]
	}
	aux, vals := round()
	if aux2, vals2 := round(); aux2 != aux || vals2 != vals {
		t.Fatal("alternating a masked and a Boolean product on one workspace replaced a pooled slot")
	}
}

// TestFloat64ProductsShareOneValuePlane: a float64 product grows the
// workspace's one float64 value plane whatever it multiplies over — core's
// typed (+, ×) and MinPlus's ⊗ and ⊕ alike — so a workspace alternating the
// two holds no more tuple memory than the larger of them alone.
func TestFloat64ProductsShareOneValuePlane(t *testing.T) {
	m := gen.ER(1024, 8, 36)
	mcsc := m.ToCSC()
	id := func(v float64) float64 { return v }
	a, b := FromCSR(m, id).ToCSC(), FromCSR(m, id)
	arith := func(ws *core.Workspace) {
		if _, _, err := core.Multiply(mcsc, m, core.Options{Threads: 1, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
	}
	minPlus := func(ws *core.Workspace) {
		var p Plan
		if _, err := MultiplyOpts(MinPlus(), a, b, Options{Threads: 1, Workspace: ws, Plan: &p}); err != nil {
			t.Fatal(err)
		}
		if p.Stats == nil || p.Stats.Layout != core.LayoutGeneric {
			t.Fatalf("MinPlus ran %+v, want the generic layout", p)
		}
	}
	var alone int64
	for _, run := range []func(*core.Workspace){arith, minPlus} {
		ws := core.NewWorkspace()
		run(ws)
		alone = max(alone, ws.TupleCapBytes())
	}
	ws := core.NewWorkspace()
	for range 2 {
		arith(ws)
		minPlus(ws)
	}
	if got := ws.TupleCapBytes(); got > alone {
		t.Fatalf("alternating the two holds %d bytes of tuples, the larger alone %d", got, alone)
	}
}

// TestZeroSizeElementIsNotStructural: an element type that takes no bytes
// is not a Boolean pattern product. Both kernels fold it through its own ⊕
// and ⊗; the row kernel used to take a zero value width for the pattern
// route and panicked converting its all-true plane to []T.
func TestZeroSizeElementIsNotStructural(t *testing.T) {
	m := gen.ER(64, 4, 37)
	unit := func(float64) struct{} { return struct{}{} }
	first := func(a, _ struct{}) struct{} { return a }
	sr := Semiring[struct{}]{Name: "unit", Plus: first, Times: first}
	a, b := FromCSR(m, unit).ToCSC(), FromCSR(m, unit)
	rows := func(*matrix.CSR, *matrix.CSR, int64) bool { return true }
	for _, opt := range []Options{{}, {Rows: rows}} {
		c, err := MultiplyOpts(sr, a, b, opt)
		if err != nil {
			t.Fatalf("rows=%v: %v", opt.Rows != nil, err)
		}
		want := ReferenceOver(sr, FromCSR(m, unit), b, nil, false)
		if !sameStructureG(c, want) || len(c.Val) != len(c.ColIdx) {
			t.Fatalf("rows=%v: structure differs from referenceOver's", opt.Rows != nil)
		}
	}
}

// FuzzFastPathVsGeneric holds the typed dispatches to two oracles on random
// shapes — the same semiring with its functions wrapped (the generic layout
// through ⊗ and ⊕) and referenceOver, which shares no code with either: structure for
// Boolean, exact values for float32 (integer-valued inputs), across budgeted
// and pooled variants.
func FuzzFastPathVsGeneric(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	ws := core.NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows := int32(data[0]%24) + 1
		inner := int32(data[1]%24) + 1
		cols := int32(data[2]%24) + 1
		coo := &matrix.COO{NumRows: rows, NumCols: inner}
		cob := &matrix.COO{NumRows: inner, NumCols: cols}
		for i := 3; i+2 < len(data); i += 3 {
			r, c, v := data[i], data[i+1], float64(data[i+2]%7)+1
			if (i/3)%2 == 0 {
				coo.Row = append(coo.Row, int32(r)%rows)
				coo.Col = append(coo.Col, int32(c)%inner)
				coo.Val = append(coo.Val, v)
			} else {
				cob.Row = append(cob.Row, int32(r)%inner)
				cob.Col = append(cob.Col, int32(c)%cols)
				cob.Val = append(cob.Val, v)
			}
		}
		a, b := coo.ToCSR(), cob.ToCSR()

		for _, opt := range []Options{
			{},
			{MemoryBudgetBytes: 128},
			{Threads: 1, Workspace: ws},
		} {
			var p Plan
			opt.Plan = &p

			bar := FromCSR(a, func(float64) bool { return true })
			ba, bb := bar.ToCSC(), FromCSR(b, func(float64) bool { return true })
			fast, err := MultiplyOpts(Boolean(), ba, bb, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !p.FastPath || p.Layout != core.LayoutPattern {
				t.Fatalf("boolean plan = %+v, want pattern", p)
			}
			oracle, err := MultiplyOpts(opaque(Boolean()), ba, bb, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameStructureG(oracle, fast) {
				t.Fatalf("pattern structure differs from generic oracle (opt %+v)", opt)
			}
			sameAsReference(t, "pattern", fast, referenceOver(Boolean(), bar, bb, nil, false), equal[bool])
			sameAsReference(t, "boolean, functions wrapped", oracle, fast, equal[bool])

			far := FromCSR(a, func(v float64) float32 { return float32(v) })
			fa, fb := far.ToCSC(), FromCSR(b, func(v float64) float32 { return float32(v) })
			ff, err := MultiplyOpts(Arithmetic32(), fa, fb, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !p.FastPath || p.Layout != core.LayoutNarrow {
				t.Fatalf("float32 plan = %+v, want narrow", p)
			}
			fo, err := MultiplyOpts(opaque(Arithmetic32()), fa, fb, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameStructureG(fo, ff) {
				t.Fatalf("narrow structure differs from generic oracle (opt %+v)", opt)
			}
			for i := range ff.Val {
				if ff.Val[i] != fo.Val[i] {
					t.Fatalf("narrow value[%d] = %v, oracle %v (opt %+v)", i, ff.Val[i], fo.Val[i], opt)
				}
			}
			sameAsReference(t, "narrow", ff, referenceOver(Arithmetic32(), far, fb, nil, false), equal[float32])
		}
	})
}
