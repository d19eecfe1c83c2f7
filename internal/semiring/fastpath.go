package semiring

import (
	"math"
	"reflect"
	"unsafe"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
)

// This file is the op table. Every product is routed by the code of its
// semiring's ⊕ and ⊗, looked up once per call (routeOf): a semiring is what
// its operations are, not who constructed it, so one assembled from stock
// functions runs as the stock one does and a stock one whose Plus or Times a
// caller replaced — with a closure of the same operation too — runs through
// the caller's functions. A stock pair gets its typed entry into core: (+, ×)
// over float64 core.Multiply's 12-byte squeezed layout, over float32 and int32
// the 8-byte narrow layout, and (∨, ∧) over all-true operands the 4-byte
// pattern (key-only) layout — the dispatch rule the README documents. The
// other stock float64 pairs (MinPlus, MaxTimes, PlusMax) get typed chunk
// loops for ⊗, which the row kernel runs and so does the generic layout, and
// the row kernel chunk loops for ⊕ too; a Boolean product over all-true
// operands needs no values at all. A plain mask never reaches a typed
// layout, nor a product Options.Rows gives the row kernel (multiplyOpts hands
// those over first); every other call with no typed entry (those three, a
// custom or modified semiring, stored false booleans) runs the same pipeline
// on the generic layout through its ⊗ chunk op and its own ⊕
// (multiplyGeneric in multiply.go). Every layout packs its keys into 32 bits:
// core adds bins until they fit, and runs a shape that needs more than its
// bin cap in groups of bins. A complement mask is none of these
// routes: the product runs as an unmasked one would, and then M's positions
// are dropped from it.

// Plan reports how MultiplyOpts executed a call: whether a typed fast path
// ran and under which tuple layout. Request it via Options.Plan.
type Plan struct {
	// FastPath is true when the call ran a typed entry point of core.
	FastPath bool
	// Layout is the tuple layout the fast path executed (pattern, narrow or
	// squeezed); meaningful only when FastPath.
	Layout core.Layout
	// Reason says what ran instead and why, when !FastPath.
	Reason string
	// Rows is true when the row kernel ran the product: a plain mask, or a
	// product Options.Rows sent there.
	Rows bool
	// Stats is the call's own copy of the phase statistics whenever
	// internal/core's pipeline ran the product — a fast path or the generic
	// layout; nil for the row kernel.
	Stats *core.Stats
}

// Flops is the symbolic pass over the operand pointer arrays: the exact
// expanded-tuple count of the outer-product formulation.
func Flops[T any](a *CSCg[T], b *CSRg[T]) int64 { return matrix.PairFlops(a.ColPtr, b.RowPtr) }

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

// csrg is m's structure with the values val.
func csrg[T any](m *matrix.CSR, val []T) *CSRg[T] {
	return &CSRg[T]{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: val}
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

// typedRun is a stock pair's typed entry into core.
type typedRun[T any] func(a *CSCg[T], b *CSRg[T], opt core.Options) (*CSRg[T], *core.Stats, error)

// stock is the op table's entry for a stock pair (⊕, ⊗).
type stock struct {
	run         any  // the pair's typedRun, nil for none
	times, fold any  // chunk loops (baseline.Ops; times the generic layout's too), nil where sr's own function runs
	arith       bool // float64 (+, ×): the row kernel's own typed loop
	pattern     bool // (∨, ∧): structural, so run only over all-true operands
}

// table holds the stock pairs by the code of their (⊕, ⊗).
var table = map[[2]uintptr]stock{
	pair(addF64, mulF64): {run: typedRun[float64](runF64), arith: true},
	pair(addF32, mulF32): {run: typedRun[float32](runNarrow[float32])},
	pair(addI32, mulI32): {run: typedRun[int32](runNarrow[int32])},
	pair(or, and):        {run: typedRun[bool](runPattern), pattern: true},
	pair(minF64, addF64): {times: timesAdd, fold: foldMin},
	pair(maxF64, mulF64): {times: timesMul, fold: foldMax},
	pair(addF64, maxF64): {times: timesMax, fold: foldAdd},
}

func pair(plus, times any) [2]uintptr { return [2]uintptr{codeOf(plus), codeOf(times)} }

func codeOf(f any) uintptr { return reflect.ValueOf(f).Pointer() }

// route is a call's one lookup of the op table: every decision it makes by
// its semiring.
type route[T any] struct {
	run typedRun[T] // the typed entry into core; nil: the generic layout, for the reason why
	why string
	// valueBytes is what a value of the row kernel's accumulator takes: nothing
	// for a Boolean product over all-true operands, which only needs its pattern.
	valueBytes int64
	stock      stock // the row kernel's loops, which rowOps binds
}

// routeOf looks sr up in the op table; a and b are the operands' values, which
// decide whether a Boolean product is structural.
func routeOf[T any](sr Semiring[T], a, b []T) route[T] {
	s := table[pair(sr.Plus, sr.Times)]
	r := route[T]{why: "no typed kernel for semiring " + sr.Name, valueBytes: int64(unsafe.Sizeof(*new(T))), stock: s}
	if s.run != nil {
		r.run, r.why = s.run.(typedRun[T]), ""
	}
	if s.pattern {
		if allTrue(any(a).([]bool)) && allTrue(any(b).([]bool)) {
			r.valueBytes = 0
		} else {
			r.run, r.why = nil, "stored false values: pattern layout is structural"
		}
	}
	return r
}

// times is sr's ⊗ as a chunk operation, dst[q] = x ⊗ y[q]: the table's chunk
// loop for the stock float64 pairs that have one, sr.Times called per element
// otherwise.
func (r route[T]) times(sr Semiring[T]) func(dst []T, x T, y []T) {
	if r.stock.times != nil {
		return r.stock.times.(func([]T, T, []T))
	}
	times := sr.Times
	return func(dst []T, x T, y []T) {
		for q, yq := range y[:len(dst)] {
			dst[q] = times(x, yq)
		}
	}
}

// rowOps lowers sr to the row kernel's chunk operations: the kernel's own
// typed loop for float64 (+, ×), the table's chunk loops for the other stock
// float64 pairs, and sr's own functions, called per element, for the rest.
func (r route[T]) rowOps(sr Semiring[T]) baseline.Ops[T] {
	switch s := r.stock; {
	case s.arith:
		return baseline.Ops[T]{Arith: true}
	case s.times != nil:
		return baseline.Ops[T]{Times: r.times(sr), Fold: s.fold.(func([]T, []int32, []T, []byte))}
	}
	plus := sr.Plus
	return baseline.Ops[T]{
		Times: r.times(sr),
		Fold: func(acc []T, at []int32, x []T, seen []byte) {
			for q, s := range seen {
				if v := x[q]; s == 0 {
					acc[at[q]] = v
				} else {
					acc[at[q]] = plus(acc[at[q]], v)
				}
			}
		}}
}

func runF64(a *CSCg[float64], b *CSRg[float64], opt core.Options) (*CSRg[float64], *core.Stats, error) {
	m, st, err := core.Multiply(cscHeader(a, a.Val), csrHeader(b, b.Val), opt)
	if err != nil {
		return nil, nil, err
	}
	return csrg(m, m.Val), st, nil
}

func runNarrow[V core.Value32](a *CSCg[V], b *CSRg[V], opt core.Options) (*CSRg[V], *core.Stats, error) {
	m, vals, st, err := core.MultiplyNarrow(cscHeader(a, nil), a.Val, csrHeader(b, nil), b.Val, opt)
	if err != nil {
		return nil, nil, err
	}
	return csrg(m, vals), st, nil
}

// runPattern computes the structural product: (∨, ∧) exactly when every stored
// value is true. Stored false entries (structural zeros) must fold through ∨
// and ∧ themselves.
func runPattern(a *CSCg[bool], b *CSRg[bool], opt core.Options) (*CSRg[bool], *core.Stats, error) {
	m, st, err := core.MultiplyPattern(cscHeader(a, nil), csrHeader(b, nil), opt)
	if err != nil {
		return nil, nil, err
	}
	return csrg(m, trueVals(opt.Workspace, len(m.ColIdx))), st, nil
}

// The stock float64 operations as the row kernel's chunk loops: each does
// exactly what the scalar function does, operands in the same order (NaN and
// ±0 included), and a fold picks the new or the folded value without a branch.
func timesAdd(dst []float64, a float64, b []float64) {
	for q, y := range b[:len(dst)] {
		dst[q] = a + y
	}
}

func timesMul(dst []float64, a float64, b []float64) {
	for q, y := range b[:len(dst)] {
		dst[q] = a * y
	}
}

func timesMax(dst []float64, a float64, b []float64) {
	for q, y := range b[:len(dst)] {
		dst[q] = maxF64(a, y)
	}
}

func foldAdd(acc []float64, at []int32, x []float64, seen []byte) {
	at, x = at[:len(seen)], x[:len(seen)]
	for q, s := range seen {
		j := at[q]
		acc[j] = pick(s, acc[j]+x[q], x[q])
	}
}

func foldMin(acc []float64, at []int32, x []float64, seen []byte) {
	at, x = at[:len(seen)], x[:len(seen)]
	for q, s := range seen {
		j := at[q]
		acc[j] = pick(s, minF64(acc[j], x[q]), x[q])
	}
}

func foldMax(acc []float64, at []int32, x []float64, seen []byte) {
	at, x = at[:len(seen)], x[:len(seen)]
	for q, s := range seen {
		j := at[q]
		acc[j] = pick(s, maxF64(acc[j], x[q]), x[q])
	}
}

// pick is folded when s is 1 and x when it is 0.
func pick(s byte, folded, x float64) float64 {
	f, r := math.Float64bits(folded), math.Float64bits(x)
	if s != 0 {
		r = f
	}
	return math.Float64frombits(r)
}
