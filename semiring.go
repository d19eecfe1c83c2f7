package pbspgemm

import (
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/semiring"
)

// Semiring defines (⊕, ⊗, 0̄) over an element type T — the algebra a
// generic multiplication runs over. Plus must be associative and commutative
// with identity Zero; Times must distribute over Plus. The compress phase
// folds duplicate (row, col) tuples with Plus; entries equal to Zero after
// folding are kept, matching GraphBLAS semantics (structural zeros are
// dropped only by explicit pruning).
type Semiring[T any] = semiring.Semiring[T]

// Matrix is a generic sparse matrix in CSR layout — the row-major view every
// semiring operation produces and consumes as its B operand and result. For
// T = float64 it is layout-identical to CSR; Float64Matrix and Float64CSR
// convert between the two without copying.
type Matrix[T any] = semiring.CSRg[T]

// ColMatrix is the column-compressed (CSC) counterpart of Matrix — the
// layout the outer-product kernel streams A in. Build one with
// (*Matrix[T]).ToCSC once and reuse it across multiplications that share A.
type ColMatrix[T any] = semiring.CSCg[T]

// SemiringPlan reports how a MultiplyOver call executed: whether a typed
// tuple-layout fast path ran (and which layout), or what ran instead and why,
// and — whenever the tuple pipeline ran the product — a copy of its per-phase
// statistics. Request one with WithSemiringPlan.
type SemiringPlan = semiring.Plan

// Stock semirings. Each call returns a fresh value; Semiring is a plain
// struct, so callers can also assemble their own.
var (
	// Arithmetic is the ordinary (+, ×) semiring over float64 — plain SpGEMM.
	Arithmetic = semiring.Arithmetic
	// Arithmetic32 is (+, ×) over float32 — plain SpGEMM at half the value
	// width, dispatched onto the 8-byte narrow tuple layout when the packed
	// keys fit 32 bits.
	Arithmetic32 = semiring.Arithmetic32
	// ArithmeticInt32 is (+, ×) over int32 — exact integer SpGEMM (path and
	// triangle counting), dispatched onto the 8-byte narrow tuple layout.
	ArithmeticInt32 = semiring.ArithmeticInt32
	// Boolean is the (∨, ∧) semiring — structural SpGEMM, the multi-source
	// BFS algebra.
	Boolean = semiring.Boolean
	// MinPlus is the tropical (min, +) semiring — one multiplication is one
	// relaxation step of all-pairs shortest paths.
	MinPlus = semiring.MinPlus
	// MaxTimes is the (max, ×) semiring of probabilistic reachability.
	MaxTimes = semiring.MaxTimes
	// PlusMax is the (+, max) semiring (bottleneck accumulation).
	PlusMax = semiring.PlusMax
)

// MatrixOf lifts a float64 CSR into a generic matrix, mapping each stored
// value with f (e.g. func(float64) bool { return true } for Boolean).
func MatrixOf[T any](m *CSR, f func(float64) T) *Matrix[T] {
	return semiring.FromCSR(m, f)
}

// Float64Matrix wraps a CSR as a Matrix[float64] without copying: both views
// share the same underlying arrays.
func Float64Matrix(m *CSR) *Matrix[float64] {
	return &Matrix[float64]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m.Val,
	}
}

// Float64CSR is the inverse of Float64Matrix: a zero-copy CSR view of a
// float64 generic matrix.
func Float64CSR(g *Matrix[float64]) *CSR {
	return &CSR{
		NumRows: g.NumRows, NumCols: g.NumCols,
		RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: g.Val,
	}
}

// MultiplyOver computes C = A ⊗ B over an arbitrary semiring with PB-SpGEMM:
// the one pipeline Multiply runs (parallel outer-product expand with
// propagation blocking, stable per-bin sort, fold) on the tuple layout the
// semiring allows — a typed one for the stock arithmetic and Boolean
// semirings, otherwise 16-byte tuples formed with sr.Times and folded with
// sr.Plus, each entry's products in ascending k within a panel and panels in
// order, whatever the thread count. A streams in column-major form — convert
// once with (*Matrix[T]).ToCSC and reuse across calls sharing A. Honors
// WithThreads, WithMemoryBudget, WithMask / WithComplementMask and
// WithContext (polled every 64 Ki expanded tuples, per sort task and per bin,
// for every semiring); WithAlgorithm is ignored. Under a plain WithMask any
// semiring runs MultiplyMasked's row kernel instead (A is first put back in
// rows, one nnz(A) pass). EngineMultiplyOver reuses workspaces.
func MultiplyOver[T any](sr Semiring[T], a *ColMatrix[T], b *Matrix[T], opts ...Option) (*Matrix[T], error) {
	cfg, err := resolve(nil, opts)
	if err != nil {
		return nil, err
	}
	return semiring.MultiplyOpts(sr, a, b, cfg.semiringOptions(nil))
}

// MultiplyMasked computes the masked product C⟨M⟩ = (A·B) ∘ M over the
// arithmetic semiring (GraphBLAS masked mxm) with a row-wise masked
// accumulator: M(r,:) is stamped into a slot array over B's columns, every
// product a_rk·b_kc probes it, and only hits are folded — nothing outside the
// mask is written, sorted or folded. Entries are summed in ascending k from
// their first product, so the result is bit-identical to Reference(A,B) ∘ M
// at every thread count; one that cancels to 0 is kept, a mask position no
// product reaches is absent. The slot array is 4 B × cols(B) per worker.
// WithComplementMask via opts inverts the mask: that keeps nearly all of A·B
// and runs the tuple pipeline on the wide layout, filtering each bin after its
// fold. Triangles: MultiplyMasked(A, A, A).
func MultiplyMasked(a, b, mask *CSR, opts ...Option) (*CSR, error) {
	e, _ := NewEngine() // no defaults: nothing to reject
	return e.MultiplyMasked(nil, a, b, mask, opts...)
}

// rowMasked: a plain (non-complement) mask, which routes the product onto semiring.MultiplyMaskedRows.
func (c *config) rowMasked() bool { return c.mask != nil && !c.complement }

// maskedArith runs a resolved masked arithmetic product on ws: a plain mask
// walks A by rows as given and returns the kernel's fresh output, a complement
// one runs the tuple pipeline on ws's CSC of A and clones the result out.
func (c *config) maskedArith(a, b *CSR, ws *Workspace) (*CSR, error) {
	sopt, br := c.semiringOptions(ws), Float64Matrix(b)
	var g *Matrix[float64]
	var err error
	if c.rowMasked() {
		g, err = semiring.MultiplyMaskedRows(Arithmetic(), Float64Matrix(a), br, sopt)
	} else if g, err = semiring.MultiplyOpts(Arithmetic(), colView(ws.CSCOf(a)), br, sopt); err == nil {
		g = g.Clone()
	}
	if err != nil {
		return nil, err
	}
	return Float64CSR(g), nil
}

// EWiseAdd returns the element-wise sum of a and b over sr.Plus: the union
// of the supports, overlaps folded with Plus (GraphBLAS eWiseAdd). With
// MinPlus this is the relaxation merge min(D, D²) of shortest-path rounds.
func EWiseAdd[T any](sr Semiring[T], a, b *Matrix[T]) (*Matrix[T], error) {
	return semiring.EWiseAdd(sr, a, b)
}

// EWiseMult returns the element-wise product of a and b over sr.Times: the
// intersection of the supports (GraphBLAS eWiseMult, the Hadamard product).
func EWiseMult[T any](sr Semiring[T], a, b *Matrix[T]) (*Matrix[T], error) {
	return semiring.EWiseMult(sr, a, b)
}

// semiringOptions lowers the resolved config to internal/semiring's
// options; ws is the pooled workspace (nil for one-shot calls).
func (c *config) semiringOptions(ws *Workspace) semiring.Options {
	return semiring.Options{
		Threads:           c.threads,
		MemoryBudgetBytes: c.budget,
		Workspace:         ws,
		Mask:              c.mask,
		Complement:        c.complement,
		Cancel:            c.cancelFunc(),
		Plan:              c.plan,
	}
}

// colView wraps a float64 CSC as a generic column matrix without copying.
func colView(m *matrix.CSC) *ColMatrix[float64] {
	return &ColMatrix[float64]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		ColPtr: m.ColPtr, RowIdx: m.RowIdx, Val: m.Val,
	}
}
