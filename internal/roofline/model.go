package roofline

// etaColumn is the fraction of STREAM bandwidth the column (hash/heap) family
// sustains in the paper's Fig. 3 model; the outer-product family (PB-SpGEMM)
// streams at full bandwidth, the paper's central claim (Section V, Figs. 7
// and 9). Column algorithms read B's rows with data-dependent, partially
// cached access. 4/5 places the crossover at the cf ≈ 4 the paper observed on
// its machines (conclusions 5 and 6) against the fused outer bound over
// squeezed 12-byte tuples: solving AIOuterFusedExact = etaColumn·AIColumnExact
// at cf = 4 with nnz(A) = nnz(B) = nnz(C),
//
//	(2+4)·16 = etaColumn·(2+2·4)·12  ⇒  etaColumn = 96/120 = 4/5.
//
// A constant of that model, kept for pct_of_roofline reporting: the Auto
// planner does not decide with it (cost.go holds what it decides with, fitted
// on this tree's kernels).
const etaColumn = 4.0 / 5.0

// Model is the paper's roofline (Section II, Fig. 3) at one bandwidth:
// predicted GFLOPS per algorithm family = eta · beta · AI, with AI from the
// family's exact traffic denominator (Eqs. 3 and 4).
type Model struct {
	// BetaGBs is the machine's sustainable memory bandwidth (STREAM Triad).
	BetaGBs float64
}

// DefaultModel returns the paper-calibrated model at bandwidth betaGBs. The
// outer family is the engine's default execution: the fused pipeline over
// squeezed 12-byte tuples, the layout PB-SpGEMM picks for almost every real
// matrix.
func DefaultModel(betaGBs float64) Model {
	return Model{BetaGBs: betaGBs}
}

// PredictOuter returns the modeled GFLOPS of the outer-product ESC family
// (PB-SpGEMM): the fused pipeline's bound (AIOuterFusedExact drops the
// compress term, so nnzC does not enter it) at the squeezed tuple cost.
//
// The per-tuple cost is applied uniformly to the whole denominator,
// including the nnzA+nnzB input reads that the engine's Stats charge at the
// 16-byte COO cost regardless of layout. That is intentional: etaColumn is
// calibrated against this uniform-cost bound (the crossover lands at the
// paper's cf ≈ 4 under it), so the small input-term discrepancy is absorbed
// by the calibration rather than double-counted. Stats report the split
// accounting; the model is a calibrated bound.
func (m Model) PredictOuter(nnzA, nnzB, flop, nnzC int64) float64 {
	return Attainable(m.BetaGBs, AIOuterFusedExact(nnzA, nnzB, flop, SqueezedBytesPerNonzero))
}

// PredictColumn returns the modeled GFLOPS of the column (hash/heap) family.
func (m Model) PredictColumn(nnzB, flop, nnzC int64) float64 {
	return etaColumn * Attainable(m.BetaGBs, AIColumnExact(nnzB, flop, nnzC, DefaultBytesPerNonzero))
}
