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
	"strings"
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
	// factor of ~4; in this tree it is fastest on products of compression
	// factor ~1 whose B is out of cache (roofline.PBCostNS).
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
	// Auto lets the Engine pick the kernel per call: the planner runs the
	// cheap symbolic flop pass, estimates nnz(C) from a work-bounded row
	// sample, and chooses between PB and SPA by the time a cost model fitted
	// on this tree's kernels predicts for each (internal/roofline/cost.go;
	// the paper's cf ≈ 4 crossover is a fact of its machines, not of this
	// model). The decision and its inputs are reported on Result.Plan.
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
	case Auto:
		return "Auto"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// algorithmNames are the names ParseAlgorithm accepts, indexed by Algorithm.
var algorithmNames = [...]string{PB: "pb", Heap: "heap", Hash: "hash", HashVec: "hashvec", SPA: "spa", Auto: "auto"}

// ParseAlgorithm maps a short algorithm name — pb, heap, hash, hashvec, spa or
// auto, in any case — to its Algorithm: the names the command-line tools and
// the HTTP service take.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if strings.EqualFold(s, name) {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("pbspgemm: unknown algorithm %q", s)
}

// Algorithms returns the four algorithms of the paper's evaluation, in the
// order its figures plot them.
func Algorithms() []Algorithm { return []Algorithm{PB, Heap, Hash, HashVec} }

// PhaseStats is the per-phase timing/traffic breakdown of a PB-SpGEMM run.
// Its Layout and TupleBytes fields report the expanded-tuple layout the run
// used (see TupleLayout).
type PhaseStats = core.Stats

// TupleLayout identifies the expanded-tuple representation of a PB-SpGEMM
// run (PhaseStats.Layout). A float64 product runs the Section III-D squeezed
// 12-byte layout (uint32 key + float64 value in parallel arrays): bins keep
// local row ids small enough that localRowBits + colBits ≤ 32, and the engine
// adds bins where it must, up to 4 096. The 16-byte wide layout (the paper's
// COO tuples) serves semirings without a typed kernel and the shapes that
// would need more bins (rows·cols past about 2^44). Plan.OuterLayout reports
// which one a product runs.
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
	return mmio.ReadMatrixMarket(mmio.LimitReader(r, maxBytes))
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

// Reference computes A*B with a dense accumulator per row over B's ranked
// column ids: the oracle every kernel is held to bit for bit. C(i,j) is +0 plus
// its products, each rounded to float64, added in A's row storage order; rows
// come out sorted. It shares no code with the kernels it checks.
func Reference(a, b *CSR) *CSR { return matrix.ReferenceMultiply(a, b) }

// EqualWithin reports whether two canonical CSR matrices agree structurally
// with values within tol (SpGEMM algorithms sum in different orders).
func EqualWithin(a, b *CSR, tol float64) bool { return matrix.Equal(a, b, tol) }
