package pbspgemm

import (
	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/semiring"
)

// Semiring defines (⊕, ⊗, 0̄) over an element type T — the algebra a
// generic multiplication runs over. Plus must be associative and commutative
// with identity Zero; Times must distribute over Plus. The compress phase
// folds duplicate (row, col) tuples with Plus; entries equal to Zero after
// folding are kept, matching GraphBLAS semantics (structural zeros are
// dropped only by explicit pruning). A call is routed by the semiring's
// operations, not by its constructor: Plus and Times that are a stock
// semiring's own functions run that semiring's typed kernels — assembled by
// the caller or not — and any other function, a closure of the same operation
// included, runs through itself.
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
	// width, dispatched onto the 8-byte narrow tuple layout (16-byte wide on
	// shapes whose packed key needs more than 4 096 bins to fit 32 bits).
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

// MultiplyOver computes C = A ⊗ B over an arbitrary semiring. WithAlgorithm
// picks the kernel: PB (the default) is PB-SpGEMM, the one pipeline
// Engine.Multiply runs (parallel outer-product expand with propagation
// blocking, stable per-bin sort, fold) on the tuple layout the semiring allows
// — a typed one for the stock arithmetic and Boolean semirings, otherwise
// 16-byte tuples formed with sr.Times and folded with sr.Plus; SPA is the row
// kernel, a dense accumulator per worker (none but the pattern for Boolean
// over all-true operands); Auto prices both, the accumulator at the semiring's
// value width, and runs the cheaper (PB under WithMemoryBudget). Either way an
// entry's products fold in ascending k, whatever the thread count and memory
// budget, so PB and SPA give the same bytes. The column
// kernels Heap, Hash and HashVec have no semiring form: naming one returns
// *OptionError. A streams in column-major form — convert once with
// (*Matrix[T]).ToCSC and reuse across calls sharing A; the row kernel puts it
// back in rows first (one nnz(A) pass). Honors WithThreads, WithMemoryBudget,
// WithMask / WithComplementMask and WithContext (polled every 64 Ki expanded
// tuples, per sort task and per bin, and every 64 rows of the row kernel).
// Under a plain WithMask any semiring runs the row kernel's masked form; a
// complement mask is the product WithAlgorithm picks with M's positions
// dropped. It is EngineMultiplyOver on a fresh engine, which reuses
// workspaces across calls.
func MultiplyOver[T any](sr Semiring[T], a *ColMatrix[T], b *Matrix[T], opts ...Option) (*Matrix[T], error) {
	e, _ := NewEngine() // no defaults: nothing to reject
	return EngineMultiplyOver(e, nil, sr, a, b, opts...)
}

// MultiplyMasked computes the masked product C⟨M⟩ = (A·B) ∘ M over the
// arithmetic semiring (GraphBLAS masked mxm) with the row kernel's masked form:
// M(r,:) is stamped into a slot array over B's columns, every product a_rk·b_kc
// probes it, and only hits are folded — nothing outside the mask is written,
// sorted or folded. Entries are summed in ascending k from their first
// product, so the result is bit-identical to Reference(A,B) ∘ M at every thread
// count; one that cancels to 0 is kept, a mask position no product reaches is
// absent. The slot array is 4 B × cols(B) per worker. WithComplementMask via
// opts inverts the mask: that keeps nearly all of A·B, so the call runs the
// product WithAlgorithm names (PB by default; Auto plans it as an unmasked
// one) and drops M's positions from it. Of the column kernels only SPA has a
// masked form (see MultiplyOver). Triangles: MultiplyMasked(A, A, A).
func MultiplyMasked(a, b, mask *CSR, opts ...Option) (*CSR, error) {
	e, _ := NewEngine() // no defaults: nothing to reject
	return e.MultiplyMasked(nil, a, b, mask, opts...)
}

// rowMasked: a plain (non-complement) mask, which runs the row kernel's masked form.
func (c *config) rowMasked() bool { return c.mask != nil && !c.complement }

// overAlgorithm rejects, for a semiring or masked product, a kernel that has no
// form there: PB, SPA and Auto do, the other column kernels do not.
func (c *config) overAlgorithm() error {
	switch c.algorithm {
	case PB, SPA, Auto:
		return nil
	}
	return &OptionError{Option: "WithAlgorithm", Value: int64(c.algorithm)}
}

// maskedArith runs a resolved arithmetic product under a plain mask on ws: the
// row kernel's masked form (baseline.SPA) on A by rows as given. The product
// is the caller's.
func (c *config) maskedArith(a, b *CSR, ws *workspace) (*CSR, error) {
	m, _, err := baseline.SPA(a, b, baseline.Options{Threads: c.threads, Workspace: ws.Col,
		Cancel: c.cancelFunc(), Mask: c.mask})
	if err != nil {
		return nil, err
	}
	return ws.DetachOutput(m), nil
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

// semiringOptions lowers the resolved config to internal/semiring's options;
// ws is the call's pooled workspace and scratch the planner's marker (nil where
// no planner runs). WithAlgorithm becomes the choice of kernel: SPA the row kernel, Auto
// the planner's pick, priced at the semiring's value width.
func (c *config) semiringOptions(ws *core.Workspace, scratch *[]int32) semiring.Options {
	opt := semiring.Options{
		Threads:           c.threads,
		MemoryBudgetBytes: c.budget,
		Workspace:         ws,
		Mask:              c.mask,
		Complement:        c.complement,
		Cancel:            c.cancelFunc(),
		Plan:              c.plan,
	}
	switch c.algorithm {
	case SPA:
		opt.Rows = func(*matrix.CSR, *matrix.CSR, int64) bool { return true }
	case Auto:
		cfg := *c
		opt.Rows = func(a, b *matrix.CSR, valueBytes int64) bool {
			return planFor(&cfg, a, b, scratch, valueBytes).Chosen == SPA
		}
	}
	return opt
}
