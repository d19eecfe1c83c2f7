// Package roofline implements the paper's SpGEMM performance model
// (Section II): arithmetic-intensity bounds as a function of the compression
// factor cf and the per-tuple byte cost b, and the attainable performance
// beta*AI under the Roofline model of Williams et al. It regenerates Fig. 3
// and encodes the qualitative classification of Tables I–III.
package roofline

import (
	"pbspgemm/internal/matrix"
)

// DefaultBytesPerNonzero is b in the paper: 16 bytes per stored tuple
// (4-byte row id, 4-byte col id, 8-byte value in COO).
const DefaultBytesPerNonzero = float64(matrix.BytesPerTuple)

// SqueezedBytesPerNonzero is b for the squeezed tuple layout of Section
// III-D: the packed (localRow, col) key fits 4 bytes whenever
// localRowBits + colBits ≤ 32, so a tuple costs 12 bytes (u32 key + f64
// value in parallel arrays) instead of 16.
const SqueezedBytesPerNonzero = 12.0

// NarrowBytesPerNonzero is b for the 8-byte narrow tuple layout: the same
// packed u32 key with a 4-byte (float32/int32) value plane. Available under
// the same localRowBits + colBits ≤ 32 geometry as the squeezed layout.
const NarrowBytesPerNonzero = 8.0

// PatternBytesPerNonzero is b for the 4-byte pattern (key-only) layout of
// structural products: a tuple IS its packed u32 key, values are never
// materialized, and the fold is deduplication.
const PatternBytesPerNonzero = 4.0

// AIUpper is Eq. 1: the best-case arithmetic intensity when every matrix is
// read or written exactly once, AI <= cf/b (flops/byte).
func AIUpper(cf, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return cf / b
}

// AIColumnLower is Eq. 3: the practical lower bound for column SpGEMM, which
// in the worst case re-reads A once per flop with no locality:
// AI >= cf/((2+cf)·b).
func AIColumnLower(cf, b float64) float64 {
	if b <= 0 || cf <= 0 {
		return 0
	}
	return cf / ((2 + cf) * b)
}

// AIOuterLower is Eq. 4: the lower bound for outer-product ESC algorithms,
// which write and re-read all flop expanded tuples:
// AI >= cf/((3+2·cf)·b).
func AIOuterLower(cf, b float64) float64 {
	if b <= 0 || cf <= 0 {
		return 0
	}
	return cf / ((3 + 2*cf) * b)
}

// AIOuterExact is the deterministic traffic model of PB-SpGEMM for known
// matrix sizes (the denominator of Eq. 4 before the bound is loosened):
// flop / (nnz(A)+nnz(B)+2·flop+nnz(C))·b.
func AIOuterExact(nnzA, nnzB, flop, nnzC int64, b float64) float64 {
	denom := float64(nnzA+nnzB+2*flop+nnzC) * b
	if denom <= 0 {
		return 0
	}
	return float64(flop) / denom
}

// AIOuterFusedExact is AIOuterExact for the fused pipeline, whose sort folds
// equal keys in its last, cache-resident pass: the separate compress sweep's
// nnz(C)·b term drops from the denominator, leaving the inputs, the expand
// write and the sort read-back of the flop tuples:
// flop / (nnz(A)+nnz(B)+2·flop)·b.
func AIOuterFusedExact(nnzA, nnzB, flop int64, b float64) float64 {
	denom := float64(nnzA+nnzB+2*flop) * b
	if denom <= 0 {
		return 0
	}
	return float64(flop) / denom
}

// AIColumnExact mirrors AIOuterExact for column SpGEMM's worst case
// (Eq. 3's denominator): flop / (flop+nnz(B)+nnz(C))·b.
func AIColumnExact(nnzB, flop, nnzC int64, b float64) float64 {
	denom := float64(flop+nnzB+nnzC) * b
	if denom <= 0 {
		return 0
	}
	return float64(flop) / denom
}

// Attainable is the Roofline prediction: performance (GFLOPS) = beta (GB/s)
// × AI (flops/byte). With beta in GB/s = 1e9 bytes/s and AI in flops/byte,
// the product is GFLOPS directly.
func Attainable(betaGBs, ai float64) float64 {
	return betaGBs * ai
}

// Point is one point of the Fig. 3 roofline chart.
type Point struct {
	CF                            float64
	AIUpper, AICol, AIOuter       float64
	PerfUpper, PerfCol, PerfOuter float64 // GFLOPS at the given beta
}

// FigureThree evaluates the three bounds over a range of compression factors
// at bandwidth betaGBs and tuple cost b, reproducing the Fig. 3 chart data
// (the paper draws it at cf=1, the ER case, marked on the beta*AI line).
func FigureThree(betaGBs, b float64, cfs []float64) []Point {
	pts := make([]Point, 0, len(cfs))
	for _, cf := range cfs {
		p := Point{
			CF:      cf,
			AIUpper: AIUpper(cf, b),
			AICol:   AIColumnLower(cf, b),
			AIOuter: AIOuterLower(cf, b),
		}
		p.PerfUpper = Attainable(betaGBs, p.AIUpper)
		p.PerfCol = Attainable(betaGBs, p.AICol)
		p.PerfOuter = Attainable(betaGBs, p.AIOuter)
		pts = append(pts, p)
	}
	return pts
}

// CrossoverCF returns the compression factor at which the column lower bound
// overtakes the outer-product lower bound; the paper reports PB-SpGEMM wins
// below cf≈4 and hash wins above (conclusions 5 and 6). Analytically the two
// bounds cross where (2+cf) = (3+2cf)/k for the observed efficiency ratio k
// of the two algorithm families; with both at full bandwidth the outer bound
// is lower for all cf, so the practical crossover comes from column
// algorithms' partial bandwidth. Given measured efficiencies etaCol and
// etaOuter (fraction of beta each family sustains), the model crossover is
// where etaOuter·AIOuter = etaCol·AICol.
func CrossoverCF(etaCol, etaOuter float64) float64 {
	// Solve etaOuter/(3+2cf) = etaCol/(2+cf)  =>
	// etaOuter·(2+cf) = etaCol·(3+2cf)  =>
	// cf·(etaOuter - 2·etaCol) = 3·etaCol - 2·etaOuter  =>
	// cf = (3·etaCol - 2·etaOuter) / (etaOuter - 2·etaCol)
	// A positive finite crossover requires etaCol > etaOuter/2: column
	// algorithms must sustain more than half of PB's bandwidth efficiency,
	// which they reach at moderate densities once cache lines fill up.
	den := etaOuter - 2*etaCol
	if den == 0 {
		return 0
	}
	cf := (3*etaCol - 2*etaOuter) / den
	if cf < 0 {
		return 0
	}
	return cf
}
