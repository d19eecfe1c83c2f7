package pbspgemm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
	"pbspgemm/internal/semiring"
)

// Engine is a concurrency-safe multiplication service: a sync.Pool of
// grow-only workspaces keeps steady-state calls free of large allocations,
// every call observes its context's cancellation and deadline at phase
// boundaries, and aggregate metrics (calls, flops, modeled bytes moved)
// accumulate for serving-style observability — overall and per algorithm.
//
// Engine.Multiply is the library's one float64 entry point. It calls every
// algorithm — PB-SpGEMM and the column baselines — from one switch, on pooled
// workspaces, with the same cancellation, panic containment and metrics, and
// WithAlgorithm(Auto) lets a fitted cost model pick the predicted-fastest
// kernel per call (see Plan).
//
// Engine methods may be called from any number of goroutines; each call
// checks a workspace out of the pool and returns results that are fully
// owned by the caller (never aliased to pooled memory). NewEngine's options
// become per-engine defaults that individual calls can override.
type Engine struct {
	defaults []Option
	pool     sync.Pool // *workspace

	calls      atomic.Int64
	failures   atomic.Int64
	panics     atomic.Int64
	flops      atomic.Int64
	bytesMoved atomic.Int64
	nnzOut     atomic.Int64
	busyNanos  atomic.Int64

	byAlg [numAlgorithms]algCounters
}

// numAlgorithms sizes the per-algorithm counter array: one slot per
// concrete algorithm (Auto resolves to one of them before dispatch).
const numAlgorithms = int(Auto)

// algCounters is one algorithm's slice of the engine metrics.
type algCounters struct {
	calls      atomic.Int64
	failures   atomic.Int64
	flops      atomic.Int64
	nnzOut     atomic.Int64
	busyNanos  atomic.Int64
	autoChosen atomic.Int64
}

// NewEngine returns an engine whose option defaults apply to every call.
// Invalid defaults (e.g. WithThreads(-1)) are rejected here, with the same
// *OptionError a call would return.
func NewEngine(defaults ...Option) (*Engine, error) {
	if _, err := resolve(defaults, nil); err != nil {
		return nil, err
	}
	e := &Engine{defaults: defaults}
	e.pool.New = func() any { return newWorkspace() }
	return e, nil
}

// EngineMetrics is a snapshot of an engine's aggregate counters. Calls
// rejected before dispatch — invalid options, mismatched shapes — are not
// counted at all: the counters track multiplications that ran (to
// completion or cancellation), not request validation.
type EngineMetrics struct {
	// Calls is the number of dispatched multiplications (successful or not).
	Calls int64
	// Failures counts dispatched calls that returned an error (including
	// cancellations).
	Failures int64
	// Panics counts dispatched calls whose kernel panicked and was contained
	// into a *par.PanicError (a subset of Failures). Each such call's
	// workspace was discarded rather than returned to the pool.
	Panics int64
	// Flops is the total scalar multiplications performed by successful calls.
	Flops int64
	// BytesMoved is the total modeled memory traffic (the paper's 16-byte
	// per-tuple model over inputs, expansion and output) of successful calls.
	BytesMoved int64
	// NNZProduced is the total nonzeros returned by successful calls.
	NNZProduced int64
	// Busy is the cumulative wall time spent inside multiplications; with
	// concurrent callers it exceeds elapsed time.
	Busy time.Duration
	// ByAlgorithm breaks the counters down per executed kernel; only
	// algorithms that have dispatched at least one call appear. Auto calls
	// are recorded under the kernel the planner chose, with AutoChosen
	// counting how many arrived that way.
	ByAlgorithm map[Algorithm]AlgorithmMetrics
}

// AlgorithmMetrics is one kernel's slice of the engine counters.
type AlgorithmMetrics struct {
	Calls       int64
	Failures    int64
	Flops       int64
	NNZProduced int64
	Busy        time.Duration
	// AutoChosen counts the calls the roofline planner routed to this
	// kernel (as opposed to explicit WithAlgorithm selection).
	AutoChosen int64
}

// Metrics returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Metrics() EngineMetrics {
	m := EngineMetrics{
		Calls:       e.calls.Load(),
		Failures:    e.failures.Load(),
		Panics:      e.panics.Load(),
		Flops:       e.flops.Load(),
		BytesMoved:  e.bytesMoved.Load(),
		NNZProduced: e.nnzOut.Load(),
		Busy:        time.Duration(e.busyNanos.Load()),
	}
	for alg := range numAlgorithms {
		ac := &e.byAlg[alg]
		calls := ac.calls.Load()
		if calls == 0 {
			continue
		}
		if m.ByAlgorithm == nil {
			m.ByAlgorithm = make(map[Algorithm]AlgorithmMetrics)
		}
		m.ByAlgorithm[Algorithm(alg)] = AlgorithmMetrics{
			Calls:       calls,
			Failures:    ac.failures.Load(),
			Flops:       ac.flops.Load(),
			NNZProduced: ac.nnzOut.Load(),
			Busy:        time.Duration(ac.busyNanos.Load()),
			AutoChosen:  ac.autoChosen.Load(),
		}
	}
	return m
}

// record folds one finished call into the aggregate counters, overall and
// under the executed algorithm.
func (e *Engine) record(start time.Time, alg Algorithm, viaAuto bool, flops, nnzA, nnzB, nnzC int64, err error) {
	elapsed := int64(time.Since(start))
	e.calls.Add(1)
	e.busyNanos.Add(elapsed)
	var ac *algCounters
	if alg >= 0 && int(alg) < numAlgorithms {
		ac = &e.byAlg[alg]
		ac.calls.Add(1)
		ac.busyNanos.Add(elapsed)
		if viaAuto {
			ac.autoChosen.Add(1)
		}
	}
	if err != nil {
		e.failures.Add(1)
		if ac != nil {
			ac.failures.Add(1)
		}
		return
	}
	e.flops.Add(flops)
	e.nnzOut.Add(nnzC)
	// Table III's traffic model: expand reads both inputs and writes flop
	// tuples, sort reads them back, compress writes nnz(C) tuples.
	e.bytesMoved.Add(matrix.BytesPerTuple * (nnzA + nnzB + 2*flops + nnzC))
	if ac != nil {
		ac.flops.Add(flops)
		ac.nnzOut.Add(nnzC)
	}
}

// Multiply computes C = A*B with the configured algorithm (default PB; Auto
// plans per call), honoring ctx at phase boundaries. It is safe for
// concurrent use; the returned Result is fully caller-owned. A nil ctx
// falls back to a WithContext default, then to context.Background().
func (e *Engine) Multiply(ctx context.Context, a, b *CSR, opts ...Option) (*Result, error) {
	cfg, err := resolve(e.defaults, opts)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		cfg.ctx = ctx
	}
	if a.NumCols != b.NumRows {
		return nil, shapeError(a, b)
	}
	if err := cfg.validateMaskShape(a.NumRows, b.NumCols); err != nil {
		return nil, err
	}
	if cfg.mask != nil {
		if err := cfg.overAlgorithm(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res, alg, viaAuto, err := e.multiply(&cfg, a, b)
	var flops, nnzc int64
	if res != nil {
		flops, nnzc = res.Flops, res.C.NNZ()
	}
	e.record(start, alg, viaAuto, flops, a.NNZ(), b.NNZ(), nnzc, err)
	return res, err
}

// MultiplyMasked computes C⟨M⟩ = (A·B) ∘ mask over the arithmetic semiring
// without materializing the unmasked product (see MultiplyMasked at package
// level). It shares the engine's workspace pool, context handling and
// metrics: a plain mask is recorded in ByAlgorithm's PB bucket, whichever
// kernel ran it; a complement mask (WithComplementMask in opts) is the planned
// product with M's positions dropped, recorded under the kernel that ran it.
func (e *Engine) MultiplyMasked(ctx context.Context, a, b, mask *CSR, opts ...Option) (*CSR, error) {
	// Precedence: per-call options > the explicit mask argument > engine defaults.
	if mask != nil {
		opts = append([]Option{WithMask(mask)}, opts...)
	}
	if cfg, err := resolve(e.defaults, opts); err != nil {
		return nil, err
	} else if cfg.mask == nil {
		return nil, errNilMask
	}
	res, err := e.Multiply(ctx, a, b, opts...)
	if err != nil {
		return nil, err
	}
	return res.C, nil
}

// release returns ws to the pool — unless err carries a contained worker
// panic, in which case the workspace is discarded outright: its pooled
// planes may hold partially written phase state, and while core fully resets
// a poisoned workspace before reuse, the pool should only ever hold
// workspaces with a clean history. Discarding is cheap (the next pool.Get
// allocates fresh and grows on first use); the panic is also tallied so
// operators can watch for a misbehaving workload.
func (e *Engine) release(ws *workspace, err error) {
	if err != nil {
		var pe *par.PanicError
		if errors.As(err, &pe) {
			e.panics.Add(1)
			return
		}
	}
	e.pool.Put(ws)
}

// multiply runs one resolved call on a pooled workspace: Auto first runs the
// planner (or takes a WithPlan plan), then ws.run calls the kernel and the
// product is detached from the workspace before it returns to the pool.
// It reports the executed algorithm
// (and whether the planner chose it) for the per-algorithm metrics; a product
// under a plain mask is recorded under PB, whichever kernel ran it.
func (e *Engine) multiply(cfg *config, a, b *CSR) (*Result, Algorithm, bool, error) {
	start := time.Now()
	ws := e.pool.Get().(*workspace)
	alg, plan := cfg.algorithm, (*Plan)(nil)
	switch {
	case cfg.rowMasked():
		alg = PB
	case alg == Auto && cfg.handedPlan(a, b):
		plan = cfg.autoPlan
		alg = plan.Chosen
	case alg == Auto:
		// Observe cancellation before planning: the symbolic pass is real
		// work an expired ctx should not pay for.
		if cancel := cfg.cancelFunc(); cancel != nil {
			if err := cancel(); err != nil {
				e.pool.Put(ws)
				return nil, alg, false, err
			}
		}
		plan = planFor(cfg, a, b, &ws.PlanScratch, 8)
		alg = plan.Chosen
	}
	c, pb, col, err := ws.run(cfg, alg, a, b)
	if err != nil {
		e.release(ws, err)
		return nil, alg, plan != nil, err
	}
	// Take the product out of the pooled workspace before another call can
	// grab it: the pool hands its output arrays over instead of copying them.
	res := &Result{C: ws.DetachOutput(c), Algorithm: alg, Plan: plan}
	switch {
	case pb != nil:
		st := *pb
		res.PB, res.Flops, res.Elapsed = &st, st.Flops, st.Total
	case col != nil:
		st := *col
		res.Baseline, res.Flops, res.Elapsed = &st, st.Flops, st.Total
	default: // a plain mask
		res.Flops = matrix.FlopsCSR(a, b)
	}
	if cfg.mask != nil { // the masked kernel, or the product and the drop after it
		res.Elapsed = time.Since(start)
	}
	if nnz := res.C.NNZ(); nnz > 0 {
		res.CF = float64(res.Flops) / float64(nnz)
	}
	e.pool.Put(ws)
	return res, alg, plan != nil, nil
}

// workspace bundles the pooled buffers of both kernel families, so one pooled
// object serves whichever kernel a call runs.
type workspace struct {
	Core *core.Workspace
	Col  *baseline.Workspace

	// PlanScratch pools the Auto planner's O(cols(B)) symbolic marker, so
	// steady-state planned calls stay allocation-free like everything else.
	PlanScratch []int32
}

func newWorkspace() *workspace {
	return &workspace{Core: core.NewWorkspace(), Col: baseline.NewWorkspace()}
}

// run multiplies a·b on ws with kernel alg, or under cfg's mask, observing
// cfg's context at phase boundaries. This switch is the one place a kernel is
// called from. The product and the stats alias ws until the next call (take
// the product with DetachOutput); pb or col is set for the kernel family that
// ran, neither under a plain mask, whose product is already the caller's. A
// complement mask's positions are dropped from the product alg made. A panic
// raised inside is returned as a *par.PanicError.
func (ws *workspace) run(cfg *config, alg Algorithm, a, b *CSR) (c *CSR, pb *PhaseStats, col *BaselineStats, err error) {
	defer contain(alg, &err)
	if cfg.rowMasked() {
		c, err = cfg.maskedArith(a, b, ws)
		return c, nil, nil, err
	}
	cancel := cfg.cancelFunc()
	var column func(a, b *matrix.CSR, opt baseline.Options) (*matrix.CSR, *baseline.Stats, error)
	switch alg {
	case PB:
		c, pb, err = core.Multiply(ws.Core.CSCOf(a), b, core.Options{
			NBins:             cfg.nbins,
			LocalBinBytes:     cfg.localBin,
			Threads:           cfg.threads,
			L2CacheBytes:      cfg.l2Cache,
			MemoryBudgetBytes: cfg.budget,
			Workspace:         ws.Core,
			Cancel:            cancel,
		})
	case Heap:
		column = baseline.Heap
	case Hash:
		column = baseline.Hash
	case HashVec:
		column = baseline.HashVec
	case SPA:
		column = baseline.SPA
	default:
		return nil, nil, nil, &OptionError{Option: "WithAlgorithm", Value: int64(alg)}
	}
	if column != nil {
		c, col, err = column(a, b, baseline.Options{Threads: cfg.threads, Workspace: ws.Col, Cancel: cancel})
	}
	if err == nil && cfg.mask != nil {
		c.ColIdx, c.Val = matrix.DropMasked(c.RowPtr, c.ColIdx, c.Val, cfg.mask)
	}
	return c, pb, col, err
}

// contain converts a panic unwinding out of a kernel call — the kernel's own
// sequential code, or a *par.PanicError rethrown by the par primitives after a
// contained worker panic — into a typed error return, so one poisoned request
// cannot take down a process embedding the engine. PB contains panics inside
// core already; this is the last line for every kernel and the code around it.
func contain(alg Algorithm, err *error) {
	if pe := par.AsPanicError(recover(), -1, alg.String()); pe != nil {
		*err = pe
	}
}

// DetachOutput makes c caller-owned without copying it: whichever sub-pool
// holds c as its pooled result hands the arrays over and forgets them
// (regrowing on its next call); a c no pool owns is returned unchanged.
func (ws *workspace) DetachOutput(c *CSR) *CSR {
	return ws.Col.DetachOutput(ws.Core.DetachOutput(c))
}

// EngineMultiplyOver is MultiplyOver running on an engine: the semiring
// multiplication checks a pooled workspace out of e, observes ctx at phase
// boundaries and inside the long phase loops, and folds into e's metrics —
// under SPA when the row kernel ran a product without a plain mask, under PB
// otherwise, and as AutoChosen when Auto picked the kernel. (Go methods cannot
// introduce type parameters, hence the package-level function taking the
// engine first.) The result is fully caller-owned: the row kernel's is
// allocated for the caller, the pipeline's handed over by the workspace. The
// wide layout's pooled planes are cached per element type T, so an engine
// serving a stable T hits its pool just like the float64 path.
func EngineMultiplyOver[T any](e *Engine, ctx context.Context, sr Semiring[T], a *ColMatrix[T], b *Matrix[T], opts ...Option) (*Matrix[T], error) {
	cfg, err := resolve(e.defaults, opts)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		cfg.ctx = ctx
	}
	if err := cfg.overAlgorithm(); err != nil {
		return nil, err
	}
	// Shape rejections happen before dispatch so they stay out of the
	// metrics, matching Engine.Multiply.
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("pbspgemm: inner dimensions disagree (%dx%d)·(%dx%d): %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	if err := cfg.validateMaskShape(a.NumRows, b.NumCols); err != nil {
		return nil, err
	}
	start := time.Now()
	ws := e.pool.Get().(*workspace)
	var plan SemiringPlan
	sopt := cfg.semiringOptions(ws.Core, &ws.PlanScratch)
	sopt.Plan = &plan
	gc, err := semiring.MultiplyOpts(sr, a, b, sopt)
	if cfg.plan != nil {
		*cfg.plan = plan
	}
	var nnzc int64
	if err == nil {
		// Hand the pipeline's product over; the row kernel's is already the caller's.
		ws.Core.DetachOutput(&matrix.CSR{RowPtr: gc.RowPtr})
		nnzc = gc.NNZ()
	}
	e.release(ws, err)
	alg := PB
	if plan.Rows && !cfg.rowMasked() {
		alg = SPA
	}
	e.record(start, alg, cfg.algorithm == Auto && !cfg.rowMasked(), semiring.Flops(a, b), a.NNZ(), b.NNZ(), nnzc, err)
	return gc, err
}

// validateMaskShape rejects a mask that does not match the product's
// shape, before dispatch — so shape mistakes never reach the metrics.
func (c *config) validateMaskShape(rows, cols int32) error {
	if c.mask != nil && (c.mask.NumRows != rows || c.mask.NumCols != cols) {
		return fmt.Errorf("pbspgemm: mask is %dx%d, product is %dx%d: %w",
			c.mask.NumRows, c.mask.NumCols, rows, cols, matrix.ErrShape)
	}
	return nil
}
