package roofline

import (
	"sync"

	"pbspgemm/internal/stream"
)

// DefaultEtaOuter is the fraction of STREAM bandwidth the outer-product ESC
// family (PB-SpGEMM) sustains in the model. The paper's central claim
// (Section V, Fig. 7/9) is that every PB phase streams at near-STREAM rate,
// so the default is full efficiency.
const DefaultEtaOuter = 1.0

// DefaultEtaColumn is the sustained-bandwidth fraction of the column
// (hash/heap) family in the paper's Fig. 3 model. Column algorithms read B's
// rows with data-dependent, partially-cached access and only reach a fraction
// of STREAM; 8/11 places CrossoverCF at the cf ≈ 4 boundary the paper observed
// on its machines (conclusions 5 and 6) against squeezed 12-byte outer tuples
// and the unfused bound. It is a constant of that model, kept for the figures
// and for pct_of_roofline reporting: the Auto planner does not decide with it
// (cost.go holds what it decides with, fitted on this tree's kernels).
//
// With wide 16-byte outer tuples the two AI curves — whose ratio
// (2+cf)/(3+2cf) spans only (1/2, 2/3) — do not cross at all under one eta
// pair: the model then puts the column family ahead at every cf.
const DefaultEtaColumn = 8.0 / 11.0

// DefaultEtaColumnFused is DefaultEtaColumn against the FUSED outer bound
// (AIOuterFusedLower): with the compress term dropped the outer AI rises, so
// keeping the model's crossover at cf ≈ 4 takes a higher column efficiency.
// Solving etaOuter·AIOuterFused(4, 12) = etaCol·AIColumn(4, 16) with
// etaOuter = 1:
//
//	1·(2+4)·16 = etaCol·(2+2·4)·12  ⇒  etaCol = 96/120 = 4/5.
//
// Like DefaultEtaColumn, a constant of the Fig. 3 model and not of the planner.
const DefaultEtaColumnFused = 4.0 / 5.0

// Model carries the machine and efficiency terms of the paper's roofline
// (Section II, Fig. 3): predicted GFLOPS per algorithm family = eta · beta ·
// AI, with AI from the family's exact traffic denominator (Eqs. 3 and 4).
type Model struct {
	// BetaGBs is the machine's sustainable memory bandwidth (STREAM Triad).
	BetaGBs float64
	// EtaColumn and EtaOuter scale beta per algorithm family.
	EtaColumn, EtaOuter float64
	// BytesPerTuple is b in the paper's AI model (16): the per-tuple cost of
	// the wide COO layout, used by the column family (and by the outer
	// family when no per-run override applies).
	BytesPerTuple float64
	// BytesPerTupleOuter, when positive, overrides b for the outer-product
	// family only: 12 when PB-SpGEMM's squeezed tuple layout applies. Zero
	// means BytesPerTuple.
	BytesPerTupleOuter float64
	// FusedOuter models the outer family with the fused pipeline's traffic
	// (AIOuterFusedExact: the compress term dropped from Eq. 4's
	// denominator). It must be paired with an EtaColumn calibrated against
	// that bound — DefaultEtaColumnFused — which DefaultModel does; the
	// unfused three-pass ablation clears it and takes DefaultEtaColumn.
	FusedOuter bool
}

// OuterBytes is the per-tuple byte cost the outer-family predictions use.
func (m Model) OuterBytes() float64 {
	if m.BytesPerTupleOuter > 0 {
		return m.BytesPerTupleOuter
	}
	return m.BytesPerTuple
}

// DefaultModel returns the paper-calibrated model at bandwidth betaGBs. The
// outer family defaults to the engine's default execution: the fused
// pipeline over squeezed 12-byte tuples — the layout PB-SpGEMM picks for
// almost every real matrix; callers modeling a product whose key geometry
// forces wide tuples set BytesPerTupleOuter to BytesPerTuple.
func DefaultModel(betaGBs float64) Model {
	return Model{
		BetaGBs:            betaGBs,
		EtaColumn:          DefaultEtaColumnFused,
		EtaOuter:           DefaultEtaOuter,
		BytesPerTuple:      DefaultBytesPerNonzero,
		BytesPerTupleOuter: SqueezedBytesPerNonzero,
		FusedOuter:         true,
	}
}

// PredictOuter returns the modeled GFLOPS of the outer-product ESC family
// (PB-SpGEMM) on a multiplication with the given traffic profile, at the
// family's per-run tuple cost (see OuterBytes) and the family's pipeline
// (fused by default: AIOuterFusedExact's denominator drops the compress
// term).
//
// The per-tuple cost is applied uniformly to the whole denominator,
// including the nnzA+nnzB input reads that the engine's Stats charge at the
// 16-byte COO cost regardless of layout. That is intentional: the etas are
// calibrated against this uniform-cost family of bounds (the crossover
// lands at the paper's cf ≈ 4 under it), so the small input-term
// discrepancy is absorbed by the calibration rather than double-counted.
// Stats report the split accounting; the model is a calibrated bound.
func (m Model) PredictOuter(nnzA, nnzB, flop, nnzC int64) float64 {
	if m.FusedOuter {
		return m.EtaOuter * Attainable(m.BetaGBs, AIOuterFusedExact(nnzA, nnzB, flop, m.OuterBytes()))
	}
	return m.EtaOuter * Attainable(m.BetaGBs, AIOuterExact(nnzA, nnzB, flop, nnzC, m.OuterBytes()))
}

// PredictColumn returns the modeled GFLOPS of the column (hash/heap) family.
func (m Model) PredictColumn(nnzB, flop, nnzC int64) float64 {
	return m.EtaColumn * Attainable(m.BetaGBs, AIColumnExact(nnzB, flop, nnzC, m.BytesPerTuple))
}

// Crossover returns the model's crossover compression factor (see
// CrossoverCF / CrossoverCFFused, by pipeline); with the default etas both
// calibrations sit at the paper's cf ≈ 4. A squeezed outer-family tuple
// cost (BytesPerTupleOuter < BytesPerTuple) acts like a higher outer
// efficiency — it scales the outer AI by BytesPerTuple/OuterBytes — and
// pushes the crossover up, widening the cf range where PB wins.
func (m Model) Crossover() float64 {
	etaOuter := m.EtaOuter
	if ob := m.OuterBytes(); ob > 0 && m.BytesPerTuple > 0 {
		etaOuter *= m.BytesPerTuple / ob
	}
	if m.FusedOuter {
		return CrossoverCFFused(m.EtaColumn, etaOuter)
	}
	return CrossoverCF(m.EtaColumn, etaOuter)
}

// calibration is the once-per-process micro-measurement of beta.
var (
	calibOnce sync.Once
	calibBeta float64
)

// calibrationElems sizes the calibration arrays: 1<<21 float64 = 16 MiB per
// array, large enough to defeat last-level caches on common parts while
// keeping the one-shot measurement in the tens of milliseconds.
const calibrationElems = 1 << 21

// CalibrateBeta measures the machine's STREAM Triad bandwidth once per
// process with a reduced run (see stream.QuickTriad) and caches the result;
// it is the planner's default beta when the caller provides none. threads
// follows the usual convention (0 = GOMAXPROCS) and only the first call's
// value is used.
func CalibrateBeta(threads int) float64 {
	calibOnce.Do(func() {
		calibBeta = stream.QuickTriad(calibrationElems, threads, 3)
	})
	return calibBeta
}
