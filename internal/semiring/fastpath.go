package semiring

import (
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
)

// This file routes MultiplyOpts onto core's typed entry points whenever the
// semiring and element type have a native tuple layout: (+, ×) over float64
// runs core.Multiply's 12-byte squeezed layout, float32/int32 the 8-byte
// narrow layout, and (∨, ∧) over all-true operands the 4-byte pattern
// (key-only) layout — the dispatch rule the README documents. Each packs its
// keys into 32 bits (core adds bins until they fit), and on shapes that would
// need more than core's bin cap for it runs the wide layout over the same
// arithmetic instead (core.MultiplyLayout). A
// plain mask never gets here, nor a product Options.Rows gives the row kernel
// (multiplyOpts hands those over first); every other ineligible call (custom
// semiring, complement mask, stored false booleans) runs the same pipeline on
// the wide layout through its own ⊗ and ⊕ (multiplyGeneric in multiply.go).

// Plan reports how MultiplyOpts executed a call: whether a typed fast path
// ran and under which tuple layout. Request it via Options.Plan.
type Plan struct {
	// FastPath is true when the call ran a typed entry point of core.
	FastPath bool
	// Layout is the tuple layout the fast path executed (pattern, narrow or
	// squeezed; wide on the shapes core.MultiplyLayout names); meaningful
	// only when FastPath.
	Layout core.Layout
	// Reason says what ran instead and why, when !FastPath.
	Reason string
	// Rows is true when the row kernel ran the product: a plain mask, or a
	// product Options.Rows sent there.
	Rows bool
	// Stats is the call's own copy of the phase statistics whenever
	// internal/core's pipeline ran the product — a fast path or the wide
	// layout over a custom semiring; nil for the row kernel.
	Stats *core.Stats
}

// Flops is the symbolic pass over the operand pointer arrays: the exact
// expanded-tuple count of the outer-product formulation.
func Flops[T any](a *CSCg[T], b *CSRg[T]) int64 {
	var flops int64
	for i := int32(0); i < a.NumCols; i++ {
		flops += (a.ColPtr[i+1] - a.ColPtr[i]) * (b.RowPtr[i+1] - b.RowPtr[i])
	}
	return flops
}

// cscHeader wraps a generic column matrix's index arrays as a float64 CSC
// without copying; val may be nil for the entry points that carry values out
// of band (narrow) or not at all (pattern).
func cscHeader[T any](a *CSCg[T], val []float64) *matrix.CSC {
	return &matrix.CSC{NumRows: a.NumRows, NumCols: a.NumCols,
		ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: val}
}

func csrHeader[T any](b *CSRg[T], val []float64) *matrix.CSR {
	return &matrix.CSR{NumRows: b.NumRows, NumCols: b.NumCols,
		RowPtr: b.RowPtr, ColIdx: b.ColIdx, Val: val}
}

// typed returns a and b as V-valued matrices when T is V.
func typed[V, T any](a *CSCg[T], b *CSRg[T]) (*CSCg[V], *CSRg[V], bool) {
	av, ok := any(a).(*CSCg[V])
	bv, bok := any(b).(*CSRg[V])
	return av, bv, ok && bok
}

// trueVals returns n true values, in ws.PatternVals when ws is non-nil. They
// are filled by doubling copies, at memmove speed.
func trueVals(ws *core.Workspace, n int) []bool {
	var vals []bool
	if ws != nil {
		vals = matrix.Grow(&ws.PatternVals, n)
	} else {
		vals = make([]bool, n)
	}
	if n > 0 {
		vals[0] = true
	}
	for done := 1; done < n; done *= 2 {
		copy(vals[done:], vals[:done])
	}
	return vals
}

func allTrue(vals []bool) bool {
	for _, v := range vals {
		if !v {
			return false
		}
	}
	return true
}

// tryFastPath dispatches eligible calls onto core's typed entry points. It
// returns why == "" when one ran (its result or its error with it), and
// otherwise why none did: the caller falls back to multiplyGeneric.
func tryFastPath[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (c *CSRg[T], why string, err error) {
	if sr.kind == kindGeneric {
		return nil, "no typed kernel for semiring " + sr.Name, nil
	}
	if opt.Mask != nil {
		return nil, "complement mask: wide layout with a post-fold filter", nil
	}
	copt := opt.coreOptions()
	var m *matrix.CSR
	var vals any // the product's value plane, a []T
	var st *core.Stats
	switch sr.kind {
	case kindArithF64:
		if af, bf, ok := typed[float64](a, b); ok {
			m, st, err = core.Multiply(cscHeader(af, af.Val), csrHeader(bf, bf.Val), copt)
		}
	case kindArithF32:
		if af, bf, ok := typed[float32](a, b); ok {
			m, vals, st, err = core.MultiplyNarrow(cscHeader(af, nil), af.Val, csrHeader(bf, nil), bf.Val, copt)
		}
	case kindArithI32:
		if af, bf, ok := typed[int32](a, b); ok {
			m, vals, st, err = core.MultiplyNarrow(cscHeader(af, nil), af.Val, csrHeader(bf, nil), bf.Val, copt)
		}
	case kindBoolean:
		// The pattern layout computes the structural product: correct for
		// (∨, ∧) exactly when every stored value is true. Stored false
		// entries (structural zeros) must fold through ∨ and ∧ themselves.
		ab, bb, ok := typed[bool](a, b)
		if ok && (!allTrue(ab.Val) || !allTrue(bb.Val)) {
			return nil, "stored false values: pattern layout is structural", nil
		}
		if ok {
			m, st, err = core.MultiplyPattern(cscHeader(ab, nil), csrHeader(bb, nil), copt)
		}
	}
	switch {
	case err != nil:
		return nil, "", err
	case m == nil:
		return nil, "semiring kind and element type disagree", nil
	case sr.kind == kindArithF64:
		vals = m.Val
	case sr.kind == kindBoolean:
		vals = trueVals(opt.Workspace, len(m.ColIdx))
	}
	opt.setPlan(Plan{FastPath: true, Layout: st.Layout}, st)
	return &CSRg[T]{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: vals.([]T)}, "", nil
}
