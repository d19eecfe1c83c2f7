package main

import (
	"math/bits"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

func TestFigLabel(t *testing.T) {
	if figLabel(kindER) != "7" || figLabel(kindRMAT) != "9" {
		t.Fatal("figure labels wrong")
	}
	if kindER.name() != "ER" || kindRMAT.name() != "RMAT" {
		t.Fatal("kind names wrong")
	}
}

func TestPickThreads(t *testing.T) {
	cfg := &config{threads: 4}
	if pickThreads(cfg, 0) != 4 {
		t.Fatal("config threads not used")
	}
	if pickThreads(cfg, 2) != 2 {
		t.Fatal("override not honoured")
	}
}

func TestMatrixKindGenerate(t *testing.T) {
	er := kindER.generate(8, 4, 1)
	if er.NumRows != 256 || er.NNZ() != 256*4 {
		t.Fatalf("ER generate wrong: %dx%d nnz=%d", er.NumRows, er.NumCols, er.NNZ())
	}
	rm := kindRMAT.generate(8, 4, 1)
	if rm.NumRows != 256 {
		t.Fatalf("RMAT generate wrong shape %d", rm.NumRows)
	}
}

func TestBestRunReturnsValidResult(t *testing.T) {
	cfg := &config{reps: 2}
	a := gen.ERMatrix(7, 4, 1)
	res := bestRun(cfg, a, a)
	if res == nil || res.C == nil || res.Flops <= 0 {
		t.Fatal("bestRun returned invalid result")
	}
	res = bestRun(cfg, a, a, pbspgemm.WithAlgorithm(pbspgemm.PB), pbspgemm.WithThreads(1))
	if st := res.PB; st == nil || st.Fuse <= 0 || st.FusedBytes <= 0 || assembleBytes(st) != st.TupleBytes*st.NNZC {
		t.Fatal("a PB bestRun must carry the fuse and assemble phases the figures report")
	}
}

func TestBetaOverride(t *testing.T) {
	cfg := &config{beta: 42}
	if betaGBs(cfg) != 42 {
		t.Fatal("beta override ignored")
	}
}

func TestThreadSteps(t *testing.T) {
	steps := threadSteps()
	if len(steps) == 0 || steps[0] != 1 {
		t.Fatalf("threadSteps = %v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("threadSteps not increasing: %v", steps)
		}
	}
}

func TestExperimentsListComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range experimentsList() {
		if e.run == nil || e.desc == "" {
			t.Fatalf("experiment %q incomplete", e.name)
		}
		ids[e.name] = true
	}
	for _, want := range []string{"fig3", "fig6a", "fig6b", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "table5", "table6", "table7",
		"tables123", "planner", "bench"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestPlannerWorkloadsCoverBothRegimes(t *testing.T) {
	cfg := &config{seed: 42}
	var lowCF, highCF, pastL2 int
	for _, w := range plannerWorkloads(cfg) {
		if w.gen == nil || w.name == "" {
			t.Fatalf("workload %+v incomplete", w)
		}
		a, b := w.gen()
		if a.NumCols != b.NumRows {
			t.Fatalf("workload %s shapes disagree", w.name)
		}
		switch cf := float64(pbspgemm.Flops(a, b)) / float64(matrix.ProductNNZ(a, b)); {
		case cf < 1.5:
			lowCF++
		case cf > 8:
			highCF++
		}
		if b.NumCols > 1<<16 {
			pastL2++
		}
	}
	if lowCF == 0 || highCF == 0 || pastL2 == 0 {
		t.Fatalf("sweep must cover both cf regimes and an accumulator past the cache: %d low, %d high, %d past 2^16 columns",
			lowCF, highCF, pastL2)
	}
}

func TestBenchCaseProducesValidRegime(t *testing.T) {
	cfg := &config{reps: 1}
	c := benchCase{"er-test", "ER", 8, 4, 1, 2, 1, 0, "", false}
	r, err := runBenchCase(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flops <= 0 || r.NNZC <= 0 || r.NsPerOp <= 0 || r.GFLOPS <= 0 {
		t.Fatalf("invalid regime: %+v", r)
	}
	if r.Layout != "squeezed" || r.TupleBytes != 12 {
		t.Fatalf("small ER regime should squeeze: layout=%s bytes=%d", r.Layout, r.TupleBytes)
	}
	if r.Threads != 1 {
		t.Fatalf("threadsCap=1 not honored: %d", r.Threads)
	}
	// The typed-mode dispatches land on their dedicated layouts.
	c.name, c.mode = "er-test-pattern", "pattern"
	if r, err = runBenchCase(cfg, c); err != nil {
		t.Fatal(err)
	} else if r.Layout != "pattern" || r.TupleBytes != 4 || r.Mode != "pattern" {
		t.Fatalf("pattern regime: layout=%s bytes=%d mode=%s", r.Layout, r.TupleBytes, r.Mode)
	}
	c.name, c.mode = "er-test-f32", "f32"
	if r, err = runBenchCase(cfg, c); err != nil {
		t.Fatal(err)
	} else if r.Layout != "narrow" || r.TupleBytes != 8 || r.Mode != "f32" {
		t.Fatalf("f32 regime: layout=%s bytes=%d mode=%s", r.Layout, r.TupleBytes, r.Mode)
	}
	// MinPlus on PB runs the generic layout (a 4-byte key beside its float64)
	// and reports the pipeline's stats.
	c.name, c.mode = "er-test-minplus", "minplus"
	if r, err = runBenchCase(cfg, c); err != nil {
		t.Fatal(err)
	} else if r.Layout != "generic" || r.TupleBytes != 12 || r.Mode != "minplus" || r.Flops <= 0 || r.Fuse.Millis <= 0 {
		t.Fatalf("minplus regime: %+v", r)
	}
}

func TestBenchCasesFixedSeedsAndLayoutPair(t *testing.T) {
	cases := benchCases()
	var sq, pattern bool
	for _, c := range cases {
		if c.seedA == 0 || c.seedB == 0 {
			t.Fatalf("%s: seeds must be fixed and nonzero", c.name)
		}
		if c.kind == "ER" && c.scale == 13 {
			switch c.mode {
			case "":
				sq = true
			case "pattern":
				pattern = true
			}
		}
	}
	if !sq || !pattern {
		t.Fatal("trajectory must carry a squeezed/pattern pair on the low-cf ER regime")
	}
}

// TestBenchCasesCarryFusedPairs: the trajectory must pin the fused float64
// product on the high-cf R-MAT input single-threaded (so the allocs gate
// bites), the regimes gated against it must share its input, and the -gate
// names must resolve.
func TestBenchCasesCarryFusedPairs(t *testing.T) {
	byName := map[string]benchCase{}
	for _, c := range benchCases() {
		byName[c.name] = c
	}
	f, okF := byName[gateFusedRegime]
	if !okF || f.kind != "RMAT" || f.mode != "" || f.threadsCap != 1 || f.budget != 0 {
		t.Fatalf("gate regime %s missing or not the single-threaded unbudgeted float64 R-MAT product: %+v", gateFusedRegime, f)
	}
	// The MinPlus-on-PB gate compares the generic layout against the
	// squeezed float64 product: same input, same threads, same bins; only the
	// value plane's ⊗ and ⊕ differ.
	mp, okMP := byName[gateMinPlusRegime]
	if !okMP || mp.mode != "minplus" {
		t.Fatal("gate minplus regime missing or not minplus-mode")
	}
	mp.name, mp.mode = f.name, f.mode
	if mp != f {
		t.Fatal("the minplus gate regime must differ from its fused comparator only in name and mode")
	}
	// The Boolean-regime gate compares the pattern layout against the
	// squeezed fused regime, so the two must share identical inputs and
	// single-threaded pooling.
	p, okP := byName[gatePatternRegime]
	if !okP || p.mode != "pattern" {
		t.Fatal("gate pattern regime missing or not pattern-mode")
	}
	if p.threadsCap != 1 || p.budget != 0 {
		t.Fatalf("%s must be single-threaded, unbudgeted", p.name)
	}
	if p.scale != f.scale || p.ef != f.ef || p.seedA != f.seedA || p.seedB != f.seedB {
		t.Fatal("pattern gate regime must share the squeezed comparator's input")
	}
}

// TestBenchBudgetGateAndMT: each budget-overhead gate compares two regimes on
// identical input, layout and one thread, differing only in the budget, with
// the shallow budget above the deep one; and the trajectory must carry
// multi-threaded acceptance regimes.
func TestBenchBudgetGateAndMT(t *testing.T) {
	byName := map[string]benchCase{}
	for _, c := range benchCases() {
		byName[c.name] = c
	}
	f, okF := byName[gateFusedRegime]
	s, okS := byName[gateShallowRegime]
	b, okB := byName[gateBudgetedRegime]
	if !okF || !okS || !okB || b.budget <= 0 || s.budget <= b.budget {
		t.Fatalf("budget gate pairs incomplete: single-shot=%v shallow=%v (%d) deep=%v (%d)", okF, okS, s.budget, okB, b.budget)
	}
	for _, c := range []benchCase{s, b} {
		c.name, c.budget = f.name, f.budget
		if c != f {
			t.Fatal("a budgeted gate regime must differ from the single-shot one only in name and budget")
		}
	}
	if budgetGateFactor != 1.3 || shallowBudgetGateFactor != 1.15 {
		t.Fatalf("budget gate factors %v and %v, want 1.3 and 1.15", budgetGateFactor, shallowBudgetGateFactor)
	}
	for _, name := range []string{"er-lowcf-squeezed-mt", "rmat-highcf-fused-mt"} {
		c, ok := byName[name]
		if !ok || c.threadsCap != 0 {
			t.Fatalf("multi-threaded regime %s missing or thread-capped", name)
		}
	}
}

// TestBenchCancelPollComparators: withCancelPollComparators must append one
// no-op-hook twin per acceptance regime, differing only in name and hook, so
// the ≤1% poll-overhead gate always finds its pairs.
func TestBenchCancelPollComparators(t *testing.T) {
	cases := withCancelPollComparators(benchCases())
	byName := map[string]benchCase{}
	for _, c := range cases {
		byName[c.name] = c
	}
	for _, name := range acceptanceRegimes {
		b, okB := byName[name]
		h, okH := byName[name+"-cancelpoll"]
		if !okB || !okH {
			t.Fatalf("cancel-poll gate pair %s incomplete", name)
		}
		if b.cancelHook || !h.cancelHook {
			t.Fatalf("%s: cancelHook flags wrong", name)
		}
		h.name, h.cancelHook = b.name, b.cancelHook
		if h != b {
			t.Fatalf("%s: cancel-poll twin must differ only in name and hook", name)
		}
	}
}

// TestBenchCasesCarryDRAMRegimes: the DRAM-resident expand gate keys on its
// regimes by name, and they must be BENCHMARK.json's er_lowcf product —
// ER scale 16, ef 8 — single-threaded, fused and unbudgeted.
func TestBenchCasesCarryDRAMRegimes(t *testing.T) {
	byName := map[string]benchCase{}
	for _, c := range benchCases() {
		byName[c.name] = c
	}
	for _, g := range dramGateRegimes {
		c, ok := byName[g.name]
		if !ok {
			t.Fatalf("DRAM gate regime %s missing", g.name)
		}
		if c.kind != "ER" || c.scale != 16 || c.ef != 8 || c.threadsCap != 1 || c.budget != 0 {
			t.Fatalf("%s is not the single-threaded er_lowcf product: %+v", g.name, c)
		}
	}
}

// TestBenchCasesCarryHypersparseWide: er-hypersparse is a product whose
// flop-rule geometry packs keys wider than 32 bits, and which Multiply still
// runs squeezed, in more bins; single-threaded and pooled like the other
// phase-stat regimes.
func TestBenchCasesCarryHypersparseWide(t *testing.T) {
	byName := map[string]benchCase{}
	for _, c := range benchCases() {
		byName[c.name] = c
	}
	sq, ok := byName["er-hypersparse"]
	if !ok || sq.mode != "" || sq.threadsCap != 1 || sq.budget != 0 {
		t.Fatalf("%+v: want a single-threaded single-shot float64 regime", sq)
	}
	a, b := sq.generate()
	acsc := a.ToCSC()
	keyBits := func(nbins int) int {
		return bits.Len64(uint64((int(a.NumRows)+nbins-1)/nbins-1)) + bits.Len64(uint64(b.NumCols-1))
	}
	// The flop rule: 16 bytes a flop over the 1 MiB bin budget.
	if flopRule := int(matrix.FlopsCSR(a, b) * 16 / core.DefaultL2CacheBytes); keyBits(flopRule) <= 32 {
		t.Fatalf("the flop rule's %d bins pack %d-bit keys: the product would squeeze unchanged", flopRule, keyBits(flopRule))
	}
	_, st, err := core.Multiply(acsc, b, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != core.LayoutSqueezed || keyBits(st.NBins) > 32 {
		t.Fatalf("Multiply ran %v in %d bins (%d-bit keys), want squeezed", st.Layout, st.NBins, keyBits(st.NBins))
	}
}

// TestBenchCasesCarryFuseGateRegimes: the fuse.pct_of_stream floors key on
// their regimes by name; each must be single-threaded, fused and unbudgeted
// (the phase stat is Stats.Fuse), and the rmat-dram pair must be
// BENCHMARK.json's rmat_skew product — R-MAT scale 13, ef 16, squared.
func TestBenchCasesCarryFuseGateRegimes(t *testing.T) {
	byName := map[string]benchCase{}
	for _, c := range benchCases() {
		byName[c.name] = c
	}
	for _, g := range fuseGateRegimes {
		c, ok := byName[g.name]
		if !ok {
			t.Fatalf("fuse gate regime %s missing", g.name)
		}
		if c.threadsCap != 1 || c.budget != 0 || g.pct <= 0 {
			t.Fatalf("%s (floor %.1f) is not a single-threaded fused single-shot regime: %+v", g.name, g.pct, c)
		}
	}
	for _, name := range []string{"rmat-dram-squeezed", "rmat-dram-pattern"} {
		c := byName[name]
		if c.kind != "RMAT" || c.scale != 13 || c.ef != 16 || c.seedA != c.seedB {
			t.Fatalf("%s is not the rmat_skew product: %+v", name, c)
		}
	}
}
