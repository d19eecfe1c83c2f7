package semiring

import (
	"fmt"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// Options configures a multiplication. The zero value runs single-shot on
// all cores with fresh buffers.
type Options struct {
	// Threads is the worker count of every phase; 0 means GOMAXPROCS.
	Threads int
	// MemoryBudgetBytes caps the expanded-tuple buffer
	// (core.Options.MemoryBudgetBytes): the bins are cut into groups whose
	// tuples fit, and each bin still folds once, so the bytes do not depend on
	// it.
	MemoryBudgetBytes int64
	// Workspace, if non-nil, pools every buffer across calls. The tuple and
	// value planes of a custom semiring are cached per element type T: reuse
	// hits when T is stable across calls. The returned matrix then aliases
	// workspace memory (except under a plain mask) and is invalidated by the
	// workspace's next call.
	Workspace *core.Workspace
	// Mask, if non-nil, restricts the output structurally (GraphBLAS C⟨M⟩):
	// only positions where Mask stores an entry survive (values ignored).
	// A plain mask runs the row kernel (baseline.Rows) for every semiring.
	// Mask must be canonical CSR of shape rows(A)×cols(B).
	Mask *matrix.CSR
	// Complement flips the mask (C⟨¬M⟩): keep positions NOT stored in Mask.
	// Ignored when Mask is nil. The product runs as an unmasked one would —
	// a typed layout, the generic one or the row kernel — and then M's
	// positions are dropped from it (matrix.DropMasked).
	Complement bool
	// Cancel, if non-nil, is polled as core.Options.Cancel is: at phase
	// boundaries and inside the long phase loops (every 64 Ki expanded tuples,
	// per sort task, per bin), and every 64 rows by the row kernel. A non-nil
	// return aborts the multiplication with that error, wrapped with the
	// interrupted phase.
	Cancel func() error
	// Rows, if non-nil, picks the kernel of a product that has no plain mask
	// (a complement mask is dropped after the product): it is shown A
	// by rows and B as index-only headers, with the bytes a value of the row
	// kernel's accumulator takes (0 for a Boolean product over all-true
	// operands, which has none), and the row kernel runs when it returns true.
	// Nil keeps the tuple pipeline.
	Rows func(a, b *matrix.CSR, valueBytes int64) bool
	// Plan, if non-nil, is filled with how the call executed: whether a
	// typed fast path ran (and under which tuple layout) or what ran instead
	// and why, and the phase statistics of whichever pipeline run it was.
	Plan *Plan
}

// coreOptions lowers opt to the tuple pipeline's options.
func (opt Options) coreOptions() core.Options {
	return core.Options{Threads: opt.Threads, MemoryBudgetBytes: opt.MemoryBudgetBytes,
		Workspace: opt.Workspace, Cancel: opt.Cancel}
}

// setPlan reports how the call executed, with a copy of the pipeline's phase
// statistics (st may alias a pooled workspace; nil for the row kernel).
func (opt Options) setPlan(p Plan, st *core.Stats) {
	if opt.Plan == nil {
		return
	}
	if st != nil {
		s := *st
		p.Stats = &s
	}
	*opt.Plan = p
}

// MultiplyOpts computes C = A ⊗ B over the semiring sr with PB-SpGEMM:
// internal/core's pipeline under the typed tuple layout the semiring and
// element type allow (fastpath.go), the generic layout with sr's ⊗ and ⊕
// otherwise — or with the row kernel, under a plain mask and wherever
// opt.Rows picks it. A complement mask drops M's positions from that
// product. Panics — the semiring's callbacks run arbitrary user
// code, on worker goroutines — are contained into a *par.PanicError return
// rather than unwinding into the caller's process.
func MultiplyOpts[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (c *CSRg[T], err error) {
	defer contain(&c, &err)
	return multiplyOpts(sr, a, b, opt)
}

// contain, deferred, turns a panic of the call into its *par.PanicError.
func contain[T any](c **CSRg[T], err *error) {
	if pe := par.AsPanicError(recover(), -1, "semiring"); pe != nil {
		*c, *err = nil, pe
	}
}

func multiplyOpts[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt Options) (*CSRg[T], error) {
	if err := checkShapes(a.NumRows, a.NumCols, b, opt.Mask); err != nil {
		return nil, err
	}
	if opt.Mask != nil && opt.Complement {
		drop := opt.Mask
		opt.Mask = nil
		c, err := multiplyOpts(sr, a, b, opt)
		if err != nil {
			return nil, err
		}
		c.ColIdx, c.Val = matrix.DropMasked(c.RowPtr, c.ColIdx, c.Val, drop)
		return c, nil
	}
	r := routeOf(sr, a.Val, b.Val)
	if opt.Mask != nil || opt.Rows != nil {
		rs := rowStateOf[T](opt.Workspace)
		ar := rs.rowsOf(a)
		if opt.Mask != nil || opt.Rows(csrHeader(ar, nil), csrHeader(b, nil), r.valueBytes) {
			return rs.multiply(sr, ar, b, opt, r)
		}
	}
	if r.why == "" {
		c, st, err := r.run(a, b, opt.coreOptions())
		if err != nil {
			return nil, err
		}
		opt.setPlan(Plan{FastPath: true, Layout: st.Layout}, st)
		return c, nil
	}
	c, st, err := multiplyGeneric(sr, r, a, b, opt)
	opt.setPlan(Plan{Reason: r.why}, st)
	return c, err
}

// rowState is the row kernel's pooled state, hung off core.Workspace.Aux per
// element type: A brought back to rows, and the kernel's own workspace.
type rowState[T any] struct {
	ar CSRg[T]
	ws baseline.Workspace
}

func rowStateOf[T any](ws *core.Workspace) *rowState[T] {
	if ws == nil {
		return &rowState[T]{}
	}
	rs, ok := ws.Aux.(*rowState[T])
	if !ok {
		rs = &rowState[T]{}
		ws.Aux = rs
	}
	return rs
}

// rowsOf returns a column-major A by rows, in rs's storage.
func (rs *rowState[T]) rowsOf(a *CSCg[T]) *CSRg[T] {
	ar := &rs.ar
	ar.NumRows, ar.NumCols = a.NumRows, a.NumCols
	matrix.TransposeInto(a.NumCols, a.NumRows, a.ColPtr, a.RowIdx, a.Val, &ar.RowPtr, &ar.ColIdx, &ar.Val)
	return ar
}

// multiply runs the row kernel on A by rows: under a plain mask C⟨M⟩, else
// C = A ⊗ B with a dense accumulator — none for a pattern product (Boolean
// over all-true operands), whose entries are then all true. The product is the
// caller's.
func (rs *rowState[T]) multiply(sr Semiring[T], ar, b *CSRg[T], opt Options, r route[T]) (*CSRg[T], error) {
	reason := "row-wise dense accumulator"
	if opt.Mask != nil {
		reason = "plain mask: row-wise masked accumulator"
	}
	opt.setPlan(Plan{Rows: true, Reason: reason}, nil)
	ops, pattern := baseline.Ops[T]{}, opt.Mask == nil && r.valueBytes == 0
	if !pattern {
		ops = r.rowOps(sr)
	}
	c, vals, _, err := baseline.Rows(csrHeader(ar, nil), csrHeader(b, nil), ar.Val, b.Val, ops,
		baseline.Options{Threads: opt.Threads, Workspace: &rs.ws, Cancel: opt.Cancel, Mask: opt.Mask})
	if err != nil {
		return nil, err
	}
	if pattern {
		vals = any(trueVals(nil, len(c.ColIdx))).([]T)
	}
	return csrg(c, vals), nil
}

// checkShapes rejects an A (rows × inner) not chaining with b and a mis-shaped mask.
func checkShapes[T any](rows, inner int32, b *CSRg[T], mask *matrix.CSR) error {
	if inner != b.NumRows {
		return fmt.Errorf("semiring: inner dimensions disagree: A is %dx%d, B is %dx%d: %w",
			rows, inner, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	if mask != nil && (mask.NumRows != rows || mask.NumCols != b.NumCols) {
		return fmt.Errorf("semiring: mask is %dx%d, product is %dx%d: %w",
			mask.NumRows, mask.NumCols, rows, b.NumCols, matrix.ErrShape)
	}
	return nil
}

// multiplyGeneric runs any semiring through internal/core's pipeline on the
// generic layout: r's chunk ⊗ (the row kernel's) forms the tuples' values in
// the parallel propagation-blocked expand, and a stable sort and sr.Plus fold
// each bin in arrival order. With the fold order defined, a product is the
// same at every thread count and budget whatever sr.Plus is: ascending k.
func multiplyGeneric[T any](sr Semiring[T], r route[T], a *CSCg[T], b *CSRg[T], opt Options) (*CSRg[T], *core.Stats, error) {
	alg := core.Algebra[T]{Times: r.times(sr), Plus: sr.Plus}
	c, vals, st, err := core.MultiplyGeneric(cscHeader(a, nil), a.Val, csrHeader(b, nil), b.Val, alg, opt.coreOptions())
	if err != nil {
		return nil, nil, err
	}
	return csrg(c, vals), st, nil
}
