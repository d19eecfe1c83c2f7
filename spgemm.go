// Package pbspgemm is a bandwidth-optimized parallel sparse matrix-matrix
// multiplication (SpGEMM) library, reproducing "Bandwidth-Optimized Parallel
// Algorithms for Sparse Matrix-Matrix Multiplication using Propagation
// Blocking" (Gu, Moreira, Edelsohn, Azad — SPAA 2020).
//
// The headline algorithm, PB-SpGEMM, multiplies sparse matrices by outer
// products in an expand-sort-compress pipeline whose phases all stream
// memory at near-STREAM bandwidth, using propagation blocking to keep
// sorting and merging inside the cache. The package also provides the
// state-of-the-art column SpGEMM baselines the paper compares against
// (heap, hash, vectorized hash, and SPA accumulators), matrix generators
// (Erdős–Rényi, R-MAT), Matrix Market I/O, a STREAM bandwidth benchmark and
// the paper's Roofline performance model.
//
// Quick start:
//
//	a := pbspgemm.NewER(1<<16, 8, 1)       // 65536x65536, 8 nnz/column
//	b := pbspgemm.NewER(1<<16, 8, 2)
//	eng, _ := pbspgemm.NewEngine()         // concurrency-safe, pooled, metered
//	res, err := eng.Multiply(context.Background(), a, b)
//	fmt.Println(res.GFLOPS(), res.C.NNZ())
//
// Beyond float64 arithmetic, the package is generic over semirings
// (Semiring[T], MultiplyOver) with GraphBLAS-style masked products
// (MultiplyMasked, WithMask/WithComplementMask) and element-wise operations
// (EWiseAdd, EWiseMult); see the graph subpackage for BFS over Boolean(),
// masked triangle counting and min-plus shortest-path relaxation built on
// that surface.
package pbspgemm

import (
	"fmt"
	"io"
	"time"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/roofline"
	"pbspgemm/internal/stream"
)

// Matrix formats, re-exported from the storage layer. CSR is the library's
// canonical interchange format; PB-SpGEMM internally consumes A as CSC.
type (
	// CSR is a compressed sparse row matrix (4-byte indices, 8-byte values).
	CSR = matrix.CSR
	// CSC is a compressed sparse column matrix.
	CSC = matrix.CSC
	// COO is a coordinate-format matrix (the expanded C-hat format).
	COO = matrix.COO
)

// Algorithm selects the SpGEMM implementation.
type Algorithm int

// Available algorithms. PB is the paper's contribution; the others are the
// column SpGEMM baselines of its evaluation (Section IV-A).
const (
	// PB is PB-SpGEMM: outer-product expand-sort-compress with propagation
	// blocking. The paper's machines have it fastest below a compression
	// factor of ~4; in this tree it is fastest on hypersparse products whose B
	// is out of cache or wider than ~2^17 columns (roofline.PBCostNS).
	PB Algorithm = iota
	// Heap is HeapSpGEMM: column merging with a binary heap, O(flop log d).
	Heap
	// Hash is HashSpGEMM: column merging with open-addressing hash tables.
	Hash
	// HashVec is HashVecSpGEMM: hash merging with batched (vector-style)
	// probing.
	HashVec
	// SPA is the Gilbert-Moler-Schreiber dense accumulator as a one-pass row
	// kernel (no symbolic phase, rows emitted in column order from an
	// occupancy bitmap): the column-family kernel Auto chooses against PB,
	// and bit-identical to it on canonical inputs.
	SPA
	// OuterHeapNaive is the n-merge outer-product algorithm the paper
	// dismisses (Section II-B); present for ablations, quadratic-ish: only
	// use on small inputs.
	OuterHeapNaive
	// ColumnESC is the column-wise (row-wise on CSR) expand-sort-compress
	// algorithm of Dalton et al. [15] — the Table I cell adjacent to
	// PB-SpGEMM: same ESC output formation, but without outer-product input
	// streaming or propagation blocking.
	ColumnESC
	// Auto lets the Engine pick the kernel per call: the planner runs the
	// cheap symbolic flop pass, estimates nnz(C) from a work-bounded row
	// sample, and chooses between PB and SPA by the time a cost model fitted
	// on this tree's kernels predicts for each (internal/roofline/cost.go;
	// the paper's cf ≈ 4 crossover is a fact of its machines, not of this
	// model). Engine-only (the deprecated Multiply shim rejects it); the
	// decision and its inputs are reported on Result.Plan.
	Auto
)

// String returns the algorithm name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case PB:
		return "PB-SpGEMM"
	case Heap:
		return "HeapSpGEMM"
	case Hash:
		return "HashSpGEMM"
	case HashVec:
		return "HashVecSpGEMM"
	case SPA:
		return "SPASpGEMM"
	case OuterHeapNaive:
		return "OuterHeapNaive"
	case ColumnESC:
		return "ColumnESC"
	case Auto:
		return "Auto"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms returns the four algorithms of the paper's evaluation, in the
// order its figures plot them.
func Algorithms() []Algorithm { return []Algorithm{PB, Heap, Hash, HashVec} }

// Options configures the deprecated Multiply entry point. The zero value
// runs PB-SpGEMM with the paper's defaults on all cores.
//
// Deprecated: new code should use an Engine with functional options
// (WithAlgorithm, WithThreads, WithMemoryBudget, WithMask, ...), which adds
// concurrency safety, context cancellation and metrics. Options remains so
// existing callers keep compiling; each field maps to the like-named With*
// option.
type Options struct {
	// Algorithm selects the implementation (default PB).
	Algorithm Algorithm
	// Threads caps worker goroutines; 0 uses GOMAXPROCS.
	Threads int
	// NBins overrides the global bin count (PB only); 0 = auto from flop
	// and L2CacheBytes (Algorithm 3).
	NBins int
	// LocalBinBytes is the requested thread-private local bin width in
	// bytes (PB only); 0 = 1024, measured on every tuple layout against the
	// paper's 512 (Fig. 6a). The engine runs the request rounded down to a
	// multiple of 16 tuples of the run's layout, and at 16 tuples when the
	// request is smaller, so that every steady-state flush moves whole cache
	// lines: 1024 B is 64 tuples at 16 bytes, 80 at 12.
	LocalBinBytes int
	// L2CacheBytes is the per-bin cache budget used to auto-size NBins (PB
	// only); 0 = 1 MiB.
	L2CacheBytes int
	// MemoryBudgetBytes caps PB-SpGEMM's expanded-tuple working set — the
	// flop×16-byte buffer that dominates its footprint. When positive and
	// smaller than that, A's columns are tiled into panels whose expansions
	// each fit the budget and per-panel results are merged, enabling
	// products whose expansion exceeds RAM. 0 = unlimited (single shot).
	// PB only; the budget is best-effort with a one-column-panel floor.
	MemoryBudgetBytes int64
	// Workspace, if non-nil, reuses buffers across calls (PB only):
	// steady-state multiplications perform zero large allocations, and with
	// Threads == 1 zero allocations at all inside the core engine. The
	// returned Result.C then aliases workspace memory and is invalidated by
	// the next Multiply using the same workspace — Clone it to keep it.
	Workspace *Workspace
	// DisableFusion runs PB with the paper's separate sort → compress →
	// assemble phases instead of the default fused pipeline (PB only; see
	// the README's "fused pipeline" section). Output is bit-identical; the
	// switch exists for ablations and for reproducing the paper's
	// per-phase sort/compress measurements, which a fused run reports
	// under the single Fuse phase instead.
	DisableFusion bool
}

// Workspace pools PB-SpGEMM's buffers (tuple arena, local bins, plan and
// merge arrays, output storage, A's CSC conversion) across Multiply calls.
// Create one with NewWorkspace, pass it via Options.Workspace, and do not
// share it between concurrent calls.
type Workspace = core.Workspace

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// PhaseStats is the per-phase timing/traffic breakdown of a PB-SpGEMM run.
// Its Layout and TupleBytes fields report the expanded-tuple layout the run
// used (see TupleLayout).
type PhaseStats = core.Stats

// TupleLayout identifies the expanded-tuple representation of a PB-SpGEMM
// run (PhaseStats.Layout): the paper's 16-byte wide COO tuples, or the
// Section III-D squeezed 12-byte layout (uint32 key + float64 value in
// parallel arrays) the engine selects whenever localRowBits + colBits ≤ 32
// — which, because bins keep local row ids small, is almost every real
// matrix. Plan.OuterTupleBytes reports which cost the Auto planner assumed.
type TupleLayout = core.Layout

const (
	// LayoutWide is the 16-byte key+value tuple layout.
	LayoutWide = core.LayoutWide
	// LayoutSqueezed is the 12-byte u32-key parallel-array layout.
	LayoutSqueezed = core.LayoutSqueezed
	// LayoutNarrow is the 8-byte u32-key + 32-bit-value layout of the typed
	// float32/int32 fast path (Arithmetic32/ArithmeticInt32 semirings).
	LayoutNarrow = core.LayoutNarrow
	// LayoutPattern is the 4-byte key-only layout of structural products
	// (the Boolean semiring's fast path).
	LayoutPattern = core.LayoutPattern
)

// BaselineStats is the two-phase breakdown of a column SpGEMM run (Symbolic
// reads 0 for SPA: one pass).
type BaselineStats = baseline.Stats

// Result is the outcome of one multiplication.
type Result struct {
	// C is the product in canonical CSR (sorted, deduplicated rows).
	C *CSR
	// Algorithm that produced C.
	Algorithm Algorithm
	// Flops is the number of scalar multiplications performed.
	Flops int64
	// CF is the compression factor flop/nnz(C).
	CF float64
	// Elapsed is the end-to-end multiplication time.
	Elapsed time.Duration
	// PB holds the phase breakdown when Algorithm == PB, else nil.
	PB *PhaseStats
	// Baseline holds the phase breakdown for column algorithms, else nil.
	Baseline *BaselineStats
	// Plan holds the planner's decision and cost-model inputs when the
	// call ran with WithAlgorithm(Auto), else nil; Algorithm then reports
	// the kernel the planner chose.
	Plan *Plan
}

// GFLOPS returns the paper's performance metric for this run.
func (r *Result) GFLOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Flops) / r.Elapsed.Seconds() / 1e9
}

// shapeError is the inner-dimension mismatch error every multiplication
// entry point returns; it wraps matrix.ErrShape for errors.Is.
func shapeError(a, b *CSR) error {
	return fmt.Errorf("pbspgemm: inner dimensions disagree (%dx%d)·(%dx%d): %w",
		a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
}

// Multiply computes C = A*B with the selected algorithm. Inputs must be
// canonical CSR (as produced by this package's generators, converters and
// readers); A is converted to CSC internally when PB or OuterHeapNaive runs
// (the conversion is excluded from Elapsed, matching how the paper passes A
// pre-converted).
//
// Deprecated: Multiply is the legacy single-threaded-workspace entry point,
// kept as a thin shim over the same kernels. New code should create an
// Engine and call Engine.Multiply(ctx, a, b, opts...), which is safe for
// concurrent use, cancellable and metered; semiring workloads should use
// MultiplyOver / MultiplyMasked.
func Multiply(a, b *CSR, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if a.NumCols != b.NumRows {
		return nil, shapeError(a, b)
	}
	res := &Result{Algorithm: opt.Algorithm}
	switch opt.Algorithm {
	case PB:
		var acsc *CSC
		if opt.Workspace != nil {
			acsc = opt.Workspace.CSCOf(a)
		} else {
			acsc = a.ToCSC()
		}
		c, st, err := core.Multiply(acsc, b, core.Options{
			NBins:             opt.NBins,
			LocalBinBytes:     opt.LocalBinBytes,
			Threads:           opt.Threads,
			L2CacheBytes:      opt.L2CacheBytes,
			MemoryBudgetBytes: opt.MemoryBudgetBytes,
			Workspace:         opt.Workspace,
			DisableFusion:     opt.DisableFusion,
		})
		if err != nil {
			return nil, err
		}
		res.C, res.PB = c, st
		res.Flops, res.CF, res.Elapsed = st.Flops, st.CF, st.Total
	case Heap, Hash, HashVec, SPA, ColumnESC:
		var fn func(a, b *matrix.CSR, o baseline.Options) (*matrix.CSR, *baseline.Stats, error)
		switch opt.Algorithm {
		case Heap:
			fn = baseline.Heap
		case Hash:
			fn = baseline.Hash
		case HashVec:
			fn = baseline.HashVec
		case ColumnESC:
			fn = baseline.ColumnESC
		default:
			fn = baseline.SPA
		}
		c, st, err := fn(a, b, baseline.Options{Threads: opt.Threads})
		if err != nil {
			return nil, err
		}
		res.C, res.Baseline = c, st
		res.Flops, res.CF, res.Elapsed = st.Flops, st.CF, st.Total
	case OuterHeapNaive:
		acsc := a.ToCSC()
		c, st, err := baseline.OuterHeap(acsc, b)
		if err != nil {
			return nil, err
		}
		res.C, res.Baseline = c, st
		res.Flops, res.CF, res.Elapsed = st.Flops, st.CF, st.Total
	case Auto:
		return nil, fmt.Errorf("pbspgemm: Auto algorithm selection requires an Engine (use Engine.Multiply)")
	default:
		return nil, fmt.Errorf("pbspgemm: unknown algorithm %v", opt.Algorithm)
	}
	return res, nil
}

// Square computes A*A, the paper's real-matrix workload (Fig. 11).
func Square(a *CSR, opt Options) (*Result, error) { return Multiply(a, a, opt) }

// MultiplyPartitioned computes C = A*B with partitioned PB-SpGEMM: A is split
// into `parts` flop-balanced row bands multiplied independently. This is the
// NUMA mitigation of Section V-D (each band's bins stay socket-local at the
// cost of re-reading B per band); parts <= 1 is plain PB-SpGEMM.
func MultiplyPartitioned(a, b *CSR, parts int, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if a.NumCols != b.NumRows {
		return nil, shapeError(a, b)
	}
	var acsc *CSC
	if opt.Workspace != nil {
		acsc = opt.Workspace.CSCOf(a)
	} else {
		acsc = a.ToCSC()
	}
	c, st, err := core.MultiplyPartitioned(acsc, b, parts, core.Options{
		NBins:             opt.NBins,
		LocalBinBytes:     opt.LocalBinBytes,
		Threads:           opt.Threads,
		L2CacheBytes:      opt.L2CacheBytes,
		MemoryBudgetBytes: opt.MemoryBudgetBytes,
		Workspace:         opt.Workspace,
		DisableFusion:     opt.DisableFusion,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		C: c, Algorithm: PB, Flops: st.Flops, CF: st.CF, Elapsed: st.Total, PB: st,
	}, nil
}

// NewER generates an n×n Erdős–Rényi matrix with exactly d nonzeros per
// column (deterministic in seed).
func NewER(n int32, d int, seed uint64) *CSR { return gen.ER(n, d, seed) }

// NewRMAT generates a 2^scale square R-MAT matrix with the Graph500
// parameters (a=0.57, b=c=0.19, d=0.05) and edgeFactor nonzeros per column
// before duplicate merging — the paper's skewed "RMAT" workload.
func NewRMAT(scale, edgeFactor int, seed uint64) *CSR {
	return gen.RMAT(scale, edgeFactor, gen.Graph500Params, seed)
}

// ReadMatrixMarket parses a Matrix Market stream (SuiteSparse format).
func ReadMatrixMarket(r io.Reader) (*CSR, error) { return mmio.ReadMatrixMarket(r) }

// ReadMatrixMarketLimited is ReadMatrixMarket with a hard byte cap for
// untrusted input: consuming more than maxBytes from r fails with an error
// matching mmio's ErrTooLarge instead of ingesting a hostile payload.
// maxBytes <= 0 means unlimited.
func ReadMatrixMarketLimited(r io.Reader, maxBytes int64) (*CSR, error) {
	return mmio.ReadMatrixMarketLimited(r, maxBytes)
}

// ReadMatrixMarketFile loads a Matrix Market file from disk.
func ReadMatrixMarketFile(path string) (*CSR, error) { return mmio.ReadFile(path) }

// WriteMatrixMarket writes m as a general real coordinate Matrix Market file.
func WriteMatrixMarket(w io.Writer, m *CSR) error { return mmio.WriteMatrixMarket(w, m) }

// Flops returns the multiplication count of A*B without computing the
// product (the paper's symbolic quantity).
func Flops(a, b *CSR) int64 { return matrix.FlopsCSR(a, b) }

// MeasureBandwidth runs the STREAM benchmark and returns beta in GB/s (best
// Triad), the bandwidth term of the Roofline model. n is elements per array
// (0 = 32Mi ≈ 256 MiB/array); pass threads=0 for all cores.
func MeasureBandwidth(n, threads int) float64 {
	return stream.Beta(stream.Run(stream.Options{N: n, Threads: threads}))
}

// PredictGFLOPS returns the Roofline prediction beta·AI for PB-SpGEMM on a
// multiplication with the given traffic profile (Eq. 4's exact form).
func PredictGFLOPS(betaGBs float64, nnzA, nnzB, flop, nnzC int64) float64 {
	ai := roofline.AIOuterExact(nnzA, nnzB, flop, nnzC, roofline.DefaultBytesPerNonzero)
	return roofline.Attainable(betaGBs, ai)
}

// Reference computes A*B with the slow, obviously-correct map accumulator —
// intended for validating other algorithms in tests and examples.
func Reference(a, b *CSR) *CSR { return matrix.ReferenceMultiply(a, b) }

// EqualWithin reports whether two canonical CSR matrices agree structurally
// with values within tol (SpGEMM algorithms sum in different orders).
func EqualWithin(a, b *CSR, tol float64) bool { return matrix.Equal(a, b, tol) }
