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
// family crossover at the paper's observed cf = 4 boundary: on the symmetric
// profile (nnz(A) = nnz(B) = nnz(C)) the two families tie there.
func TestModelCrossoverNearFour(t *testing.T) {
	m := DefaultModel(50)
	const nnz = int64(1 << 20)
	if d := m.PredictOuter(nnz, nnz, 4*nnz, nnz) - m.PredictColumn(nnz, 4*nnz, nnz); math.Abs(d) > 1e-9 {
		t.Fatalf("families do not tie at cf=4: diff %v", d)
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
	if !prefersOuter(m, nnz, nnz, 2*nnz, nnz) || prefersOuter(m, nnz, nnz, 8*nnz, nnz) {
		t.Fatal("decision not consistent around crossover 4")
	}
}

// TestModelPerRunTupleBytes pins README's per-layout crossovers of the fused
// tie point: DefaultModel charges the outer family the squeezed 12 bytes a
// tuple (crossover at cf = 4); at the wide 16 bytes the same calibration
// puts it at cf = 2/3, and at the narrow 8 and pattern 4 bytes the outer
// family is ahead at every cf.
func TestModelPerRunTupleBytes(t *testing.T) {
	m := DefaultModel(50)
	const nnz = int64(3 << 20) // 2/3 of it is whole
	outerAt := func(flop int64, b float64) float64 { return m.BetaGBs * AIOuterFusedExact(nnz, nnz, flop, b) }
	if m.PredictOuter(nnz, nnz, nnz, nnz) != outerAt(nnz, SqueezedBytesPerNonzero) {
		t.Fatal("DefaultModel does not charge the squeezed tuple cost")
	}
	if o, c := outerAt(2*nnz/3, DefaultBytesPerNonzero), m.PredictColumn(nnz, 2*nnz/3, nnz); math.Abs(o-c) > 1e-9*c {
		t.Fatalf("wide tuples: outer %v and column %v do not tie at cf = 2/3", o, c)
	}
	if outerAt(nnz, DefaultBytesPerNonzero) >= m.PredictColumn(nnz, nnz, nnz) || !prefersOuter(m, nnz, nnz, nnz, nnz) {
		t.Fatal("at cf = 1 the column family must beat wide outer tuples and lose to squeezed ones")
	}
	for _, b := range []float64{NarrowBytesPerNonzero, PatternBytesPerNonzero} {
		for _, cf := range []int64{1, 4, 16, 64} {
			if outerAt(cf*nnz, b) <= m.PredictColumn(nnz, cf*nnz, nnz) {
				t.Fatalf("%v-byte tuples lose to the column family at cf = %d", b, cf)
			}
		}
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

// TestFusedModelCalibration pins what DefaultModel models: the outer family
// at the fused pipeline's bound over squeezed 12-byte tuples, strictly above
// Eq. 4's full (unfused) denominator on the same profile, and the column
// family at 4/5 of beta over 16-byte tuples.
func TestFusedModelCalibration(t *testing.T) {
	m := DefaultModel(50)
	const nnz = int64(1 << 20)
	if got, want := m.PredictOuter(nnz, nnz, 4*nnz, nnz), 50*AIOuterFusedExact(nnz, nnz, 4*nnz, 12); got != want {
		t.Fatalf("outer prediction %v, want the fused squeezed bound %v", got, want)
	}
	if pf, pu := m.PredictOuter(nnz, nnz, 4*nnz, nnz), 50*AIOuterExact(nnz, nnz, 4*nnz, nnz, 12); pf <= pu {
		t.Fatalf("fused outer prediction %v not above unfused %v", pf, pu)
	}
	if got, want := m.PredictColumn(nnz, 4*nnz, nnz), 0.8*50*AIColumnExact(nnz, 4*nnz, nnz, 16); math.Abs(got-want) > 1e-12 {
		t.Fatalf("column prediction %v, want %v", got, want)
	}
}

// TestDefaultModelGolden: DefaultModel's predictions are the exact float64s
// the model has always returned (the benchmark's engine.pct_of_roofline
// divides by them), bit for bit, on a fixed table of inputs.
func TestDefaultModelGolden(t *testing.T) {
	for _, g := range []struct {
		beta                   float64
		nnzA, nnzB, flop, nnzC int64
		outer, column          uint64
	}{
		{11.7, 1048576, 1048576, 1048576, 1048576, 0x3fcf333333333332, 0x3fc8f5c28f5c28f5},
		{11.7, 1000, 3000, 12345, 9876, 0x3fdad99d06c37c02, 0x3fd2536c4d26727b},
		{11.7, 524288, 524288, 4194304, 4190000, 0x3fdbbbbbbbbbbbbb, 0x3fd1a0991278a1b5},
		{11.7, 1, 1, 1, 1, 0x3fcf333333333332, 0x3fc8f5c28f5c28f5},
		{11.7, 0, 0, 0, 0, 0x0, 0x0},
		{11.7, 523776, 1048576, 8380416, 520000, 0x3fdc862ccaec8a67, 0x3fdf8982260504e0},
		{22, 1048576, 1048576, 1048576, 1048576, 0x3fdd555555555555, 0x3fd7777777777778},
		{22, 1000, 3000, 12345, 9876, 0x3fe93e5f1e6d6546, 0x3fe13abd57d9c0f8},
		{22, 524288, 524288, 4194304, 4190000, 0x3fea12f684bda12f, 0x3fe0929d0acd4fd4},
		{22, 1, 1, 1, 1, 0x3fdd555555555555, 0x3fd7777777777778},
		{22, 0, 0, 0, 0, 0x0, 0x0},
		{22, 523776, 1048576, 8380416, 520000, 0x3fead14aeeeb8450, 0x3feda67a5ca241da},
		{50, 1048576, 1048576, 1048576, 1048576, 0x3ff0aaaaaaaaaaaa, 0x3feaaaaaaaaaaaaa},
		{50, 1000, 3000, 12345, 9876, 0x3ffcaf9aa29395fe, 0x3ff3943440ebcfa5},
		{50, 524288, 524288, 4194304, 4190000, 0x3ffda12f684bda12, 0x3ff2d526d217dab7},
		{50, 1, 1, 1, 1, 0x3ff0aaaaaaaaaaaa, 0x3feaaaaaaaaaaaaa},
		{50, 0, 0, 0, 0, 0x0, 0x0},
		{50, 523776, 1048576, 8380416, 520000, 0x3ffe79780f7fff15, 0x4000d8c586165f99},
	} {
		m := DefaultModel(g.beta)
		if o := math.Float64bits(m.PredictOuter(g.nnzA, g.nnzB, g.flop, g.nnzC)); o != g.outer {
			t.Errorf("%+v: PredictOuter bits %#x", g, o)
		}
		if c := math.Float64bits(m.PredictColumn(g.nnzB, g.flop, g.nnzC)); c != g.column {
			t.Errorf("%+v: PredictColumn bits %#x", g, c)
		}
	}
}

// TestAIOuterFusedBounds: the fused exact AI must exceed the unfused one
// (one fewer denominator term), and an empty product has none.
func TestAIOuterFusedBounds(t *testing.T) {
	const nnz = int64(1 << 16)
	for _, cf := range []int64{1, 2, 4, 16} {
		exactF := AIOuterFusedExact(nnz, nnz, cf*nnz, 12)
		exactU := AIOuterExact(nnz, nnz, cf*nnz, nnz, 12)
		if exactF <= exactU {
			t.Fatalf("cf=%d: fused AI %v not above unfused %v", cf, exactF, exactU)
		}
	}
	if AIOuterFusedExact(0, 0, 0, 12) != 0 {
		t.Fatal("empty product fused AI must be 0")
	}
}
