package roofline

import (
	"math"
	"testing"
)

// prefersOuter is the Fig. 3 model's verdict: PB at least as fast as the column family.
func prefersOuter(m Model, nnzA, nnzB, flop, nnzC int64) bool {
	return m.PredictOuter(nnzA, nnzB, flop, nnzC) >= m.PredictColumn(nnzB, flop, nnzC)
}

// TestModelCrossoverNearFour: the default efficiencies must place the
// family crossover at the paper's observed cf ≈ 4 boundary.
func TestModelCrossoverNearFour(t *testing.T) {
	m := DefaultModel(50)
	cf := m.Crossover()
	if cf < 3.5 || cf > 4.5 {
		t.Fatalf("default crossover cf = %v, want ≈ 4", cf)
	}
}

// TestModelRegimeSelection checks the decision on synthetic traffic
// profiles on both sides of the crossover.
func TestModelRegimeSelection(t *testing.T) {
	m := DefaultModel(50)
	const nnz = int64(1 << 20)
	// cf = 1 (the ER regime): flop == nnzC, PB must win.
	if !prefersOuter(m, nnz, nnz, nnz, nnz) {
		t.Fatal("model rejects PB at cf = 1")
	}
	// cf = 16 (well past the crossover): column family must win.
	if prefersOuter(m, nnz, nnz, 16*nnz, nnz) {
		t.Fatal("model picks PB at cf = 16")
	}
	// The crossover itself separates the two answers monotonically.
	cross := m.Crossover()
	lo := int64(math.Max(1, cross*0.5)) * nnz
	hi := int64(cross*2) * nnz
	if !prefersOuter(m, nnz, nnz, lo, nnz) || prefersOuter(m, nnz, nnz, hi, nnz) {
		t.Fatalf("decision not consistent around crossover %v", cross)
	}
}

// TestModelPerRunTupleBytes: the outer family's per-run tuple cost moves
// the crossover. The default (squeezed, 12 B) sits at the paper's cf ≈ 4;
// forcing the wide 16-byte cost drops the effective outer efficiency and
// the crossover with it, so the column family wins from a lower cf.
func TestModelPerRunTupleBytes(t *testing.T) {
	sq := DefaultModel(50)
	wide := DefaultModel(50)
	wide.BytesPerTupleOuter = wide.BytesPerTuple
	if sq.OuterBytes() != SqueezedBytesPerNonzero || wide.OuterBytes() != DefaultBytesPerNonzero {
		t.Fatalf("OuterBytes: squeezed %v wide %v", sq.OuterBytes(), wide.OuterBytes())
	}
	if wide.Crossover() >= sq.Crossover() {
		t.Fatalf("wide crossover %v not below squeezed crossover %v", wide.Crossover(), sq.Crossover())
	}
	const nnz = int64(1 << 20)
	// Same traffic profile: the squeezed model must predict strictly more
	// outer GFLOPS (less bytes moved), identical column GFLOPS.
	if sq.PredictOuter(nnz, nnz, 2*nnz, nnz) <= wide.PredictOuter(nnz, nnz, 2*nnz, nnz) {
		t.Fatal("squeezed outer prediction not above wide")
	}
	if sq.PredictColumn(nnz, 2*nnz, nnz) != wide.PredictColumn(nnz, 2*nnz, nnz) {
		t.Fatal("column prediction must not depend on the outer layout")
	}
	// At cf = 2 (below every crossover) the squeezed outer family wins; the
	// wide one, with its crossover pushed under 2, loses the same product.
	if !prefersOuter(sq, nnz, nnz, 2*nnz, nnz) {
		t.Fatal("squeezed model rejects PB at cf = 2")
	}
	if prefersOuter(wide, nnz, nnz, 8*nnz, nnz) {
		t.Fatal("wide model picks PB at cf = 8")
	}
}

// TestModelPredictionsScaleWithBeta: doubling beta doubles both families'
// predictions, leaving the decision unchanged.
func TestModelPredictionsScaleWithBeta(t *testing.T) {
	const nnz = int64(1 << 18)
	m1, m2 := DefaultModel(40), DefaultModel(80)
	p1, p2 := m1.PredictOuter(nnz, nnz, 4*nnz, nnz), m2.PredictOuter(nnz, nnz, 4*nnz, nnz)
	if math.Abs(p2-2*p1) > 1e-12 {
		t.Fatalf("outer prediction does not scale with beta: %v vs %v", p1, p2)
	}
	c1, c2 := m1.PredictColumn(nnz, 4*nnz, nnz), m2.PredictColumn(nnz, 4*nnz, nnz)
	if math.Abs(c2-2*c1) > 1e-12 {
		t.Fatalf("column prediction does not scale with beta: %v vs %v", c1, c2)
	}
}

// TestCalibrateBetaOnce: the micro-calibration returns a positive bandwidth
// and caches it (two calls, one measurement).
func TestCalibrateBetaOnce(t *testing.T) {
	b1 := CalibrateBeta(2)
	if b1 <= 0 {
		t.Fatalf("calibrated beta %v, want > 0", b1)
	}
	if b2 := CalibrateBeta(4); b2 != b1 {
		t.Fatalf("calibration not cached: %v then %v", b1, b2)
	}
}

// TestFusedModelCalibration pins the fused re-derivation: the default
// (fused) model's crossover sits exactly at the paper's cf = 4 with the
// squeezed tuple cost, the unfused ablation model stays at ≈ 4 against its
// own bound, and the fused outer prediction strictly exceeds the unfused
// one on the same profile (its denominator dropped the compress term).
func TestFusedModelCalibration(t *testing.T) {
	fused := DefaultModel(50)
	if !fused.FusedOuter || fused.EtaColumn != DefaultEtaColumnFused {
		t.Fatalf("DefaultModel not fused-calibrated: %+v", fused)
	}
	if cf := fused.Crossover(); math.Abs(cf-4) > 1e-12 {
		t.Fatalf("fused crossover = %v, want exactly 4", cf)
	}
	unfused := DefaultModel(50) // the three-pass ablation: Eq. 4's full denominator, the 8/11 calibration
	unfused.FusedOuter, unfused.EtaColumn = false, DefaultEtaColumn
	if cf := unfused.Crossover(); cf < 3.5 || cf > 4.5 {
		t.Fatalf("unfused crossover = %v, want ≈ 4", cf)
	}
	const nnz = int64(1 << 20)
	pf, pu := fused.PredictOuter(nnz, nnz, 4*nnz, nnz), unfused.PredictOuter(nnz, nnz, 4*nnz, nnz)
	if pf <= pu {
		t.Fatalf("fused outer prediction %v not above unfused %v", pf, pu)
	}
	// Column predictions share AIColumnExact; only the calibration differs.
	cf, cu := fused.PredictColumn(nnz, 4*nnz, nnz), unfused.PredictColumn(nnz, 4*nnz, nnz)
	if cf <= cu {
		t.Fatalf("fused-calibrated column eta %v not above unfused %v", cf, cu)
	}
	// At the crossover profile (cf=4, nnzA=nnzB=nnzC) the fused families tie.
	if d := fused.PredictOuter(nnz, nnz, 4*nnz, nnz) - fused.PredictColumn(nnz, 4*nnz, nnz); math.Abs(d) > 1e-9 {
		t.Fatalf("families do not tie at cf=4: diff %v", d)
	}
}

// TestAIOuterFusedBounds: the fused exact AI must exceed the unfused one
// (one fewer denominator term) and match the closed-form lower bound on the
// symmetric profile it was derived from.
func TestAIOuterFusedBounds(t *testing.T) {
	const nnz = int64(1 << 16)
	for _, cf := range []int64{1, 2, 4, 16} {
		exactF := AIOuterFusedExact(nnz, nnz, cf*nnz, 12)
		exactU := AIOuterExact(nnz, nnz, cf*nnz, nnz, 12)
		if exactF <= exactU {
			t.Fatalf("cf=%d: fused AI %v not above unfused %v", cf, exactF, exactU)
		}
		lower := AIOuterFusedLower(float64(cf), 12)
		if exactF < lower {
			t.Fatalf("cf=%d: exact fused AI %v below its lower bound %v", cf, exactF, lower)
		}
	}
	if AIOuterFusedLower(0, 12) != 0 || AIOuterFusedLower(4, 0) != 0 {
		t.Fatal("degenerate fused lower bounds must be 0")
	}
	if AIOuterFusedExact(0, 0, 0, 12) != 0 {
		t.Fatal("empty product fused AI must be 0")
	}
}
