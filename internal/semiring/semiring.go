// Package semiring generalizes PB-SpGEMM to arbitrary semirings, the
// algebra behind the paper's application citations: multi-source BFS is
// SpGEMM over the boolean semiring [3], shortest paths over the tropical
// (min-plus) semiring, triangle counting over arithmetic, Markov clustering
// over arithmetic with pruning [9]. The kernel is the paper's
// expand-sort-compress with propagation blocking, and there is one of it:
// internal/core's. This package builds and sorts no tuple of its own — it
// picks the tuple layout a product runs on (a typed one for the stock
// arithmetic and Boolean operations; the wide layout with the semiring's own
// Times in expand and Plus in the fold for everything else, multiply.go) — or
// hands the product, with A put back in rows, to the one kernel that is not a
// tuple pipeline: internal/baseline's row kernel, which every plain mask runs
// and Options.Rows may pick for any other product. Every decision a call
// makes by its semiring comes from one lookup of one op table, keyed by the
// code of its ⊕ and ⊗ (fastpath.go).
package semiring

import "math"

// Semiring defines (⊕, ⊗, 0̄) over T. Plus must be associative and
// commutative with identity Zero; Times must distribute over Plus. The
// compress phase folds duplicates with Plus; entries equal to Zero after
// folding are kept (structural zeros are dropped only by Prune-style
// post-passes), matching GraphBLAS semantics.
type Semiring[T any] struct {
	Name  string
	Zero  T
	Plus  func(a, b T) T
	Times func(a, b T) T
}

// Arithmetic is the ordinary (+, ×) semiring over float64 — plain SpGEMM.
func Arithmetic() Semiring[float64] {
	return Semiring[float64]{Name: "arithmetic(+,*)", Zero: 0, Plus: addF64, Times: mulF64}
}

// Arithmetic32 is (+, ×) over float32 — plain SpGEMM at half the value
// width, eligible for the 8-byte narrow tuple layout.
func Arithmetic32() Semiring[float32] {
	return Semiring[float32]{Name: "arithmetic32(+,*)", Zero: 0, Plus: addF32, Times: mulF32}
}

// ArithmeticInt32 is (+, ×) over int32 — exact integer SpGEMM (e.g. path
// counting), eligible for the 8-byte narrow tuple layout.
func ArithmeticInt32() Semiring[int32] {
	return Semiring[int32]{Name: "arithmetic-int32(+,*)", Zero: 0, Plus: addI32, Times: mulI32}
}

// Boolean is the (∨, ∧) semiring — structural SpGEMM, the multi-source BFS
// algebra.
func Boolean() Semiring[bool] {
	return Semiring[bool]{Name: "boolean(or,and)", Zero: false, Plus: or, Times: and}
}

// MinPlus is the tropical semiring (min, +) — one SpGEMM is one relaxation
// step of all-pairs shortest paths.
func MinPlus() Semiring[float64] {
	return Semiring[float64]{Name: "tropical(min,+)", Zero: 1e308, Plus: minF64, Times: addF64}
}

// MaxTimes is the (max, ×) semiring used in probabilistic reachability
// (most-reliable-path products).
func MaxTimes() Semiring[float64] {
	return Semiring[float64]{Name: "maxtimes(max,*)", Zero: 0, Plus: maxF64, Times: mulF64}
}

// PlusMax is the (+, max) semiring (e.g. bottleneck accumulation).
func PlusMax() Semiring[float64] {
	return Semiring[float64]{Name: "plusmax(+,max)", Zero: 0, Plus: addF64, Times: maxF64}
}

// The operations the stock semirings are made of. They are named so that the
// op table (fastpath.go) can tell them by their code: a caller's own function is
// never taken for one, even in a stock semiring's field, and a semiring
// assembled from them is routed as the stock one is. min and max pick a's bits
// when a < b (a > b), else b's — b for NaN and ±0 alike — with a conditional
// move: a running minimum's branch mispredicts at about a third of the
// products at cf ≈ 4.
func addF64(a, b float64) float64 { return a + b }
func mulF64(a, b float64) float64 { return a * b }
func addF32(a, b float32) float32 { return a + b }
func mulF32(a, b float32) float32 { return a * b }
func addI32(a, b int32) int32     { return a + b }
func mulI32(a, b int32) int32     { return a * b }
func or(a, b bool) bool           { return a || b }
func and(a, b bool) bool          { return a && b }

func minF64(a, b float64) float64 {
	x, r := math.Float64bits(a), math.Float64bits(b)
	if a < b {
		r = x
	}
	return math.Float64frombits(r)
}

func maxF64(a, b float64) float64 {
	x, r := math.Float64bits(a), math.Float64bits(b)
	if a > b {
		r = x
	}
	return math.Float64frombits(r)
}
