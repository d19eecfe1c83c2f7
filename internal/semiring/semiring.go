// Package semiring generalizes PB-SpGEMM to arbitrary semirings, the
// algebra behind the paper's application citations: multi-source BFS is
// SpGEMM over the boolean semiring [3], shortest paths over the tropical
// (min-plus) semiring, triangle counting over arithmetic, Markov clustering
// over arithmetic with pruning [9]. The kernel is the paper's
// expand-sort-compress with propagation blocking, and there is one of it:
// internal/core's. This package builds and sorts no tuple of its own — it
// picks the tuple layout a product runs on (a typed one for the stock
// arithmetic and Boolean semirings, fastpath.go; the wide layout with the
// semiring's own Times in expand and Plus in the fold for everything else,
// multiply.go) — or hands the product, with A put back in rows, to the one
// kernel that is not a tuple pipeline: internal/baseline's row kernel, which
// every plain mask runs and Options.Rows may pick for any other product.
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

	// kind tags the stock semirings whose (⊕, ⊗) the typed core engine
	// implements natively, letting MultiplyOpts dispatch onto the tuned
	// tuple-layout pipelines (see fastpath.go). Caller-assembled semirings
	// carry kindGeneric and always run the wide layout through their own func
	// values: nothing can see through one, so only constructor provenance is
	// trusted.
	kind semiringKind
}

// semiringKind enumerates the fast-path-eligible algebras.
type semiringKind uint8

const (
	kindGeneric  semiringKind = iota // no typed kernel: the wide layout through Times and Plus
	kindArithF64                     // (+, ×) over float64 → core.Multiply
	kindArithF32                     // (+, ×) over float32 → 8 B narrow
	kindArithI32                     // (+, ×) over int32 → 8 B narrow
	kindBoolean                      // (∨, ∧) over bool → 4 B pattern
)

// Arithmetic is the ordinary (+, ×) semiring over float64 — plain SpGEMM.
func Arithmetic() Semiring[float64] {
	return Semiring[float64]{Name: "arithmetic(+,*)", Zero: 0, Plus: addF64, Times: mulF64, kind: kindArithF64}
}

// Arithmetic32 is (+, ×) over float32 — plain SpGEMM at half the value
// width, eligible for the 8-byte narrow tuple layout.
func Arithmetic32() Semiring[float32] {
	return Semiring[float32]{
		Name: "arithmetic32(+,*)", Zero: 0,
		Plus:  func(a, b float32) float32 { return a + b },
		Times: func(a, b float32) float32 { return a * b },
		kind:  kindArithF32,
	}
}

// ArithmeticInt32 is (+, ×) over int32 — exact integer SpGEMM (e.g. path
// counting), eligible for the 8-byte narrow tuple layout.
func ArithmeticInt32() Semiring[int32] {
	return Semiring[int32]{
		Name: "arithmetic-int32(+,*)", Zero: 0,
		Plus:  func(a, b int32) int32 { return a + b },
		Times: func(a, b int32) int32 { return a * b },
		kind:  kindArithI32,
	}
}

// Boolean is the (∨, ∧) semiring — structural SpGEMM, the multi-source BFS
// algebra.
func Boolean() Semiring[bool] {
	return Semiring[bool]{
		Name: "boolean(or,and)", Zero: false,
		Plus:  func(a, b bool) bool { return a || b },
		Times: func(a, b bool) bool { return a && b },
		kind:  kindBoolean,
	}
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

// The float64 operations the stock semirings are made of. They are named so
// that the row kernel can tell them by their code (rowOps): a caller's own
// function is never taken for one, even in a stock semiring's field. min and
// max pick a's bits when a < b (a > b), else b's — b for NaN and ±0 alike —
// with a conditional move: a running minimum's branch mispredicts at about a
// third of the products at cf ≈ 4.
func addF64(a, b float64) float64 { return a + b }
func mulF64(a, b float64) float64 { return a * b }

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
