package pbspgemm

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
	"pbspgemm/internal/roofline"
)

// Plan records one Auto call's algorithm decision and what it was decided on:
// the product's shape, the planner's nnz(C) estimate and the time the fitted
// cost model (internal/roofline/cost.go) predicts for each of the two kernels
// Auto chooses between, PB-SpGEMM and the one-pass SPA. It is reported on
// Result.Plan so callers can audit — or log and refit — the planner's reasoning.
// Engine.Plan makes one for any algorithm: a pinned one is not chosen, only
// priced.
type Plan struct {
	// Chosen is the kernel the call runs: under Auto the one the planner
	// selected, PB or SPA; from Engine.Plan under a WithAlgorithm pin, the
	// pinned kernel.
	Chosen Algorithm
	// Flops is the symbolic multiplication count of the product.
	Flops int64
	// NNZA, NNZB are the input sizes entering the cost model.
	NNZA, NNZB int64
	// EstNNZC is the exact or estimated nnz(C); Sampled reports whether it
	// came from a strided row sample (large products) rather than the exact
	// symbolic pass.
	EstNNZC int64
	Sampled bool
	// CF is the predicted compression factor flop/nnz(C). The paper's machines
	// put the crossover between the families at cf ≈ 4; this tree's fitted
	// model does not decide on cf at all (see roofline.SPACostNS).
	CF float64
	// PredictedOuterGFLOPS, PredictedColumnGFLOPS are Flops over the time the
	// cost model predicts for PB and for SPA, on the machine its constants
	// were fitted on — the numbers the decision compares (the larger wins,
	// ties to PB). Another machine moves both alike.
	PredictedOuterGFLOPS, PredictedColumnGFLOPS float64
	// PredictedFootprintBytes estimates the call's peak transient allocation
	// before any of it happens — the signal an admission controller needs to
	// shed or queue load ahead of OOM. The model: the chosen family's working
	// set (PB expands Flops tuples of the squeezed layout, 12 bytes each, capped
	// by WithMemoryBudget: a budgeted run cuts its bins into groups whose
	// tuples fit, and holds besides them only the output and arrays the size
	// of A; column kernels accumulate roughly the output once more)
	// plus the predicted output CSR, once: the kernel assembles it into
	// memory the caller then owns. Inputs are not counted — they are already resident. An estimate,
	// not a bound: it inherits EstNNZC's sampling error and rounds workspace
	// overheads away.
	PredictedFootprintBytes int64
}

// plannerExactFlops and plannerSampleFlops bound the nnz(C) estimate's work:
// products up to plannerExactFlops are counted exactly, larger ones from a row
// sample of an eighth of their products, at most plannerSampleFlops. A count
// costs about what the row kernel takes to multiply (2-vCPU Xeon): exact,
// Engine.Plan took 1.0–1.3 ms on ER 2¹²·d8 squared (256 Kflop; SPA ~4.2 ms)
// and 4.6–5.0 ms on ER 2¹⁶·d2; at an eighth, 0.17–0.21 and 0.98–1.0 ms.
const plannerExactFlops, plannerSampleFlops = 32 << 10, 256 << 10

// planFor runs the planner: symbolic flop pass, nnz(C) estimate, then model
// with the kernel pinned to pin (Auto: the cheaper of PB and SPA), for a
// product whose row-kernel accumulator takes valueBytes per value (8 for
// float64, 0 for a Boolean pattern). a and b may be index-only headers.
// scratch pools the estimator's marker (the caller passes the checked-out
// workspace's slot, keeping steady-state planned calls allocation-free).
func planFor(cfg *config, a, b *CSR, scratch *[]int32, valueBytes int64, pin Algorithm) *Plan {
	p := &Plan{NNZA: int64(len(a.ColIdx)), NNZB: int64(len(b.ColIdx)), Flops: matrix.FlopsCSR(a, b)}
	var visited int64
	p.EstNNZC, visited = matrix.EstimateProductNNZ(a, b, p.Flops, sampleFlops(p.Flops), scratch)
	p.Sampled = visited < p.Flops
	p.model(cfg, a.NumRows, b.NumCols, pin, valueBytes)
	return p
}

// sampleFlops is the nnz(C) estimate's budget for a product of flops.
func sampleFlops(flops int64) int64 { return max(plannerExactFlops, min(flops/8, plannerSampleFlops)) }

// model fills in what the planner derives from p's counts (Flops, EstNNZC,
// NNZA, NNZB) for a rows×cols product: predicted time per kernel, the kernel
// as Chosen — pin, or under Auto the faster of PB and SPA — and its
// footprint.
func (p *Plan) model(cfg *config, rows, cols int32, pin Algorithm, valueBytes int64) {
	p.Chosen = pin
	if pin == Auto {
		p.Chosen = PB
	}
	if p.Flops == 0 {
		// Empty product: nothing to move, any kernel finishes immediately.
		p.PredictedFootprintBytes = p.footprint(int64(rows), cfg.budget)
		return
	}
	p.CF = float64(p.Flops) / float64(p.EstNNZC)
	shape := roofline.Product{Rows: rows, Cols: cols, NNZA: p.NNZA, NNZB: p.NNZB, Flops: p.Flops, NNZC: p.EstNNZC,
		ValueBytes: valueBytes, L2CacheBytes: int64(cmp.Or(cfg.l2Cache, core.DefaultL2CacheBytes))}
	pbNS, spaNS := shape.PredictPB(), shape.PredictSPA()
	p.PredictedOuterGFLOPS = float64(p.Flops) / pbNS
	p.PredictedColumnGFLOPS = float64(p.Flops) / spaNS
	// A memory budget is met by bin groups, which only PB has.
	if spaNS < pbNS && cfg.budget == 0 && pin == Auto {
		p.Chosen = SPA
	}
	p.PredictedFootprintBytes = p.footprint(int64(rows), cfg.budget)
}

// footprint implements the PredictedFootprintBytes model for the chosen
// family (see the field's doc comment).
func (p *Plan) footprint(rows, budget int64) int64 {
	// One output CSR: (rows+1)×8 RowPtr + nnz×(4+8) ColIdx/Val.
	out := (rows+1)*8 + p.EstNNZC*12
	var work int64
	if p.Chosen == PB {
		work = p.Flops * core.SqueezedTupleBytes
		if budget > 0 && budget < work {
			work = budget
		}
	} else {
		// Column kernels never materialize the expansion; their hash/heap
		// accumulators hold on the order of the output once more.
		work = p.EstNNZC * matrix.BytesPerTuple
	}
	return work + out
}

// maskedRowsPlan plans a product under a plain mask, which runs the row kernel:
// no family is predicted (PB is its metrics bucket), nnz(C) is capped by nnz(M),
// the footprint is the output, 9 B per mask entry and a slot per B column per worker.
func maskedRowsPlan(cfg *config, a, b *CSR) *Plan {
	p := &Plan{Chosen: PB, NNZA: a.NNZ(), NNZB: b.NNZ(), Flops: matrix.FlopsCSR(a, b)}
	if p.EstNNZC = min(cfg.mask.NNZ(), p.Flops); p.EstNNZC > 0 {
		p.CF = float64(p.Flops) / float64(p.EstNNZC)
	}
	p.PredictedFootprintBytes = (int64(a.NumRows)+1)*8 + p.EstNNZC*12 + cfg.mask.NNZ()*9 +
		4*int64(b.NumCols)*int64(par.DefaultThreads(cfg.threads))
	return p
}

// Grid is the block geometry of a sharded product: A's rows are split into
// Rows bands, and C(i) = A(i)·B is one block multiply per band. Cols and
// Inner, the column and inner-dimension splits of B, are always 1: PB-SpGEMM
// partitions C by row ranges so that every bin folds alone, and so does the
// shard coordinator.
type Grid struct {
	Rows, Cols, Inner int
}

// Blocks is the number of block multiplies the grid induces.
func (g Grid) Blocks() int { return g.Rows * g.Cols * g.Inner }

func (g Grid) String() string {
	return fmt.Sprintf("%dx%dx%d", g.Rows, g.Cols, g.Inner)
}

// BlockPlan is one block multiply A(i)·B of a GridPlan. Plan holds the cut's
// counts, not a pass over the block: the inputs' sizes, the exact Flops, and
// EstNNZC, the whole product's estimate apportioned by flop share (capped by
// Flops and the block's cells), with Chosen PB, the kernel every shard backend
// runs. It prices nothing: a node that runs the block plans it there.
type BlockPlan struct {
	// I is the row band; A is rows [RowOffsets[I],RowOffsets[I+1]) of the
	// whole A, a view; B is the whole B.
	I    int
	A, B *CSR
	Plan *Plan
}

// GridPlan is the result of Engine.PlanBlocksFrom: one BlockPlan per row band
// of A, in row order, and the offsets that place each band's product back
// into C. Blocks are read-only and alias the inputs: a row band is a view
// (ColIdx and Val are sub-slices of A), and B is handed over itself.
type GridPlan struct {
	Grid Grid
	// RowOffsets (len Rows+1) are the band boundaries over A's rows, of
	// near-equal flops.
	RowOffsets []int32
	Blocks     []BlockPlan
}

// PlanBlocks is PlanBlocksFrom on a fresh Engine.Plan of the whole product.
func (e *Engine) PlanBlocks(ctx context.Context, a, b *CSR, g Grid, opts ...Option) (*GridPlan, error) {
	root, err := e.Plan(ctx, a, b, opts...)
	if err != nil {
		return nil, err
	}
	return e.PlanBlocksFrom(root, a, b, g, opts...)
}

// PlanBlocksFrom cuts A into g.Rows row bands of near-equal flops and plans
// every block multiply without running or passing over any of them: root,
// the caller's Plan of this product, supplies the flop count and the nnz(C)
// estimate, and each block's Plan follows from the cut's counts — see
// BlockPlan. The row count is clamped to A's and a row too heavy to balance
// merges bands, so gp.Grid may be smaller than g and no band is empty. A grid
// with Cols or Inner other than 1 is an *OptionError.
func (e *Engine) PlanBlocksFrom(root *Plan, a, b *CSR, g Grid, opts ...Option) (*GridPlan, error) {
	if _, err := resolve(e.defaults, opts); err != nil {
		return nil, err
	}
	if a.NumCols != b.NumRows {
		return nil, shapeError(a, b)
	}
	if g.Rows < 1 || g.Cols != 1 || g.Inner != 1 {
		return nil, &OptionError{Option: "PlanBlocks(Grid)", Value: int64(g.Rows * g.Cols * g.Inner)}
	}
	gp := &GridPlan{}
	var flops []int64
	gp.RowOffsets, flops = rowBands(a, b, root.Flops, g.Rows)
	gp.Grid = Grid{Rows: len(gp.RowOffsets) - 1, Cols: 1, Inner: 1}
	gp.Blocks = make([]BlockPlan, gp.Grid.Rows)
	for i := range gp.Blocks {
		ba := matrix.RowBand(a, gp.RowOffsets[i], gp.RowOffsets[i+1])
		p := &Plan{Chosen: PB, NNZA: ba.NNZ(), NNZB: b.NNZ(), Flops: flops[i], Sampled: root.Sampled}
		if p.Flops > 0 {
			share := float64(root.EstNNZC) * float64(p.Flops) / float64(root.Flops)
			p.EstNNZC = min(int64(math.Ceil(share)), p.Flops, int64(ba.NumRows)*int64(b.NumCols))
		}
		gp.Blocks[i] = BlockPlan{I: i, A: ba, B: b, Plan: p}
	}
	return gp, nil
}

// rowBands cuts A's rows into at most parts bands of near-equal flops (of
// equal row counts when there are none) — a power-law A would otherwise leave
// one band holding the product — and returns each band's flops with the
// offsets.
func rowBands(a, b *CSR, flops int64, parts int) ([]int32, []int64) {
	if flops == 0 || parts == 1 {
		off := matrix.SplitPoints(a.NumRows, parts)
		bf := make([]int64, len(off)-1)
		bf[0] = flops
		return off, bf
	}
	w := make([]int64, a.NumRows)
	baseline.RowFlopsRange(a, b, w, 0, len(w))
	off := make([]int32, 1, parts+1)
	var bf []int64
	for _, x := range par.BalancedBoundaries(w, parts)[1:] {
		if r := int32(x); r > off[len(off)-1] {
			var f int64
			for _, v := range w[off[len(off)-1]:r] {
				f += v
			}
			off, bf = append(off, r), append(bf, f)
		}
	}
	return off, bf
}

// Plan runs the planner's pre-execution analysis — symbolic flop pass,
// nnz(C) estimate, per-kernel cost prediction, footprint model — without
// multiplying. Serving layers use it for admission control: the returned
// Plan's PredictedFootprintBytes says what a subsequent Multiply would cost
// in transient memory, and Chosen which kernel it would run: the one a
// WithAlgorithm option names (per call, or as the engine's default), priced
// as that kernel, and Auto's pick when no option names one. The call does
// not touch the engine's metrics (nothing was dispatched); ctx is observed
// before the symbolic pass, like Auto's own pre-planning check.
func (e *Engine) Plan(ctx context.Context, a, b *CSR, opts ...Option) (*Plan, error) {
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
	if cancel := cfg.cancelFunc(); cancel != nil {
		if err := cancel(); err != nil {
			return nil, err
		}
	}
	if cfg.rowMasked() {
		return maskedRowsPlan(&cfg, a, b), nil
	}
	pin := Auto
	if cfg.pinned {
		pin = cfg.algorithm
	}
	ws := e.pool.Get().(*workspace)
	p := planFor(&cfg, a, b, &ws.PlanScratch, 8, pin)
	e.pool.Put(ws)
	return p, nil
}
