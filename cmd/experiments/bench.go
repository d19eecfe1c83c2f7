package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"pbspgemm"
	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/semiring"
	"pbspgemm/internal/stream"
)

// The benchmark trajectory harness: a fixed set of fixed-seed ER and R-MAT
// regimes measured with the core engine on a pooled workspace, reported as
// GFLOPS, per-phase GB/s and allocs/op. CI runs `bench -json bench.json
// -gate` on every push and uploads it as the bench-trajectory artifact, so
// each PR leaves a comparable perf baseline behind; the committed
// BENCH_PR28.json is one -gate run of the commit that set the current
// gates (CI's informational -baseline). Regimes run the squeezed float64
// product on the low-cf ER workload (the squeezed pipeline's headline case),
// on the high-cf R-MAT workload (the fused pipeline's) and on a hypersparse
// product whose keys take more than the flop rule's bins to fit 32 bits; they
// run that R-MAT workload under two memory budgets, on the narrow and pattern
// layouts and over MinPlus on the generic layout, and a masked product beside
// its unmasked twin:
// -gate fails the run on the ratio, phase and allocation checks of gateBench.
// Two semiring products also run as a caller gets them under Auto — the planner
// choosing between PB and the row kernel — through EngineMultiplyOver.

// benchSchema versions the JSON so trajectory tooling can tell reports apart;
// bump it whenever a field or a gated regime is added or dropped (v15: the
// er-serve-spa/-pb pair, and allocs_per_op is the fewest of any one rep).
const benchSchema = "pbspgemm-bench/v15"

type benchPhase struct {
	Millis    float64 `json:"ms"`
	GBs       float64 `json:"gbs,omitempty"`
	PctStream float64 `json:"pct_of_stream,omitempty"`
}

type benchRegime struct {
	Name        string     `json:"name"`
	Kind        string     `json:"kind"` // ER | RMAT
	Scale       int        `json:"scale"`
	EdgeFactor  int        `json:"edge_factor"`
	SeedA       uint64     `json:"seed_a"`
	SeedB       uint64     `json:"seed_b"`
	Layout      string     `json:"layout"`
	Mode        string     `json:"mode,omitempty"` // "" (float64) | pattern | f32 | spa | masked | minplus | minplus-auto | bool-auto | bool-pb
	Kernel      string     `json:"kernel"`         // Stats.Kernel: the build's kernel set
	CancelHook  bool       `json:"cancel_hook,omitempty"`
	BudgetBytes int64      `json:"budget_bytes,omitempty"`
	Threads     int        `json:"threads"`
	Flops       int64      `json:"flops"`
	NNZC        int64      `json:"nnz_c"`
	CF          float64    `json:"cf"`
	TupleBytes  int64      `json:"tuple_bytes"`
	NsPerOp     int64      `json:"ns_per_op"`
	GFLOPS      float64    `json:"gflops"`
	AllocsPerOp float64    `json:"allocs_per_op"`
	Expand      benchPhase `json:"expand"`
	Fuse        benchPhase `json:"fuse"`
	Assemble    benchPhase `json:"assemble"`
}

type benchReport struct {
	Schema string `json:"schema"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Reps   int    `json:"reps"`
	// Measured STREAM Triad bandwidth — the roof the pct_of_stream figures
	// are relative to: single-threaded for the Threads==1 regimes,
	// StreamThreads-wide for the rest.
	StreamTriad1GBs float64       `json:"stream_triad_1t_gbs"`
	StreamTriadNGBs float64       `json:"stream_triad_nt_gbs"`
	StreamThreads   int           `json:"stream_threads"`
	Regimes         []benchRegime `json:"regimes"`
	// Shard carries the block-sharded coordinator regimes (see bench_shard.go).
	Shard []benchShardRegime `json:"shard,omitempty"`
}

// benchCase is one regime's generator recipe; the entry point (mode) fixes
// the layout, so the trajectory carries pairs of layouts on identical inputs.
type benchCase struct {
	name       string
	kind       string
	scale, ef  int
	seedA      uint64
	seedB      uint64
	threadsCap int    // 0: cfg/default threads, 1: pin single-threaded
	budget     int64  // MemoryBudgetBytes; >0 cuts the bins into groups
	mode       string // "" core.Multiply | "pattern" 4 B key-only | "f32" 8 B narrow | "spa" row kernel | "masked" its mask = A | "minplus" semiring.MinPlus, generic | "minplus-auto", "bool-auto", "bool-pb" through EngineMultiplyOver
	cancelHook bool   // install a no-op Cancel hook: every sub-phase poll calls it
}

// cancelPollVariant is c with a no-op cancellation hook installed, so every
// sub-phase poll window pays the full hook call instead of the production
// nil check — the upper bound the poll-overhead gate compares against.
func (c benchCase) cancelPollVariant() benchCase {
	c.name += "-cancelpoll"
	c.cancelHook = true
	return c
}

// The names the -gate check keys on (see gateBench). The pattern regime and
// the two budgeted ones run the same R-MAT input as the squeezed-float64
// acceptance pair, so gateFusedRegime doubles as the 12-byte comparator of the
// first and the single-shot comparator of the others.
const (
	gateFusedRegime    = "rmat-highcf-fused"
	gatePatternRegime  = "rmat-highcf-pattern"
	gateShallowRegime  = "rmat-highcf-budgeted-fused"
	gateBudgetedRegime = "rmat-highcf-budgeted-deep-fused"
	gateERSingleRegime = "er-hypersparse-single"
	gateERBudgetRegime = "er-hypersparse-budgeted"
	gateUnmaskedRegime = "rmat-unmasked"
	gateMaskedRegime   = "rmat-masked"
	gateServeSPARegime = "er-serve-spa"
	gateServePBRegime  = "er-serve-pb"
	gateMinPlusRegime  = "rmat-highcf-minplus-pb"
	gateAutoMinPlus    = "rmat-highcf-minplus"
	boolAutoRegime     = "rmat-dram-bool-auto"
	boolPBRegime       = "rmat-dram-bool-pb"
)

// minPlusGateFactor bounds MinPlus on PB — the generic layout, through its ⊗
// chunk loop and its ⊕ called per folded tuple — against the squeezed float64
// product of the same input: one pipeline, the same keys, bins and sort on
// every bin, only the value plane's ⊗ and ⊕ differ, so an engine re-forked
// for semirings fails it (the one the wide layout replaced measured 5).
const minPlusGateFactor = 2.0

// autoMinPlusGateFactor bounds the MinPlus product as a caller gets it — under
// Auto, which runs the row kernel there — against the float64 PB product of the
// same input: PB's since-removed wide layout made it 25.6 ms against 8.7 (2.9×).
const autoMinPlusGateFactor = 1.5

// maskedGateFactor bounds the masked regime (its mask keeps 2 % of C) against
// the unmasked PB product of the same inputs run right before it: expanding
// everything and filtering after the fold measured 8.35, the row kernel 0.35.
const maskedGateFactor = 0.5

// serveSPAGateFactor holds the row kernel, Auto's pick on serve_mix's cold
// product (ER 2^12·d8 squared, cf ≈ 1), to PB's time there: 0.87–0.92
// measured, about 0.95 before its bitmap emission lost the branch per bit.
const serveSPAGateFactor = 1.0

// budgetGateFactor and shallowBudgetGateFactor bound what a memory budget may
// cost: the budgeted regime's ns/op over the single-shot product's, same
// input, one thread. A budget cuts the single-shot bins into groups, so A is
// cut once, each group re-reads the rows of B its entries reach, and the
// output grows once or twice; every bin still folds once. Column panels, whose
// bins each folded their gathered runs again, measured 1.44 and 2.07 in
// BENCH_PR28.json.
const (
	budgetGateFactor        = 1.3
	shallowBudgetGateFactor = 1.15
)

// phaseGate is one regime's floor on a phase's pct_of_stream under -gate.
type phaseGate struct {
	name string
	pct  float64
}

// dramGateRegimes are the DRAM-resident regimes (BENCHMARK.json's er_lowcf
// product: a 50 MB squeezed arena, 17 MB of pattern keys) and the share of
// the one-thread Triad -gate holds their expand phase to. The line-aligned
// flush is what keeps the squeezed expand bandwidth-bound once the arena has
// left the private caches (52 % measured, 14 % with the unaligned flush it
// replaced). The key-only expand moves a third of the bytes through the same
// per-nonzero loop, so on 8-long B rows it is instruction-bound near 2 ns per
// tuple — 35 % measured, 30–35 % before — and its bar sits below that.
var dramGateRegimes = []phaseGate{{"er-dram-squeezed", 40}, {"er-dram-pattern", 25}}

// fuseGateRegimes are the floors -gate puts under fuse.pct_of_stream — the
// fused sort/fold phase's one read-back of the tuples over its time, as a
// share of the one-thread Triad. Provenance: each is 0.8 × what PR 16's
// committed gate run measured (53.4, 7.5, 24.4 and 14.1 %), and no lower than
// 1.5 × PR 14's figure where it had one (13.2 % on rmat-highcf-fused, 4.5 %
// on er-dram-squeezed — which is what sets that floor); both files are gone,
// the constants are what remains of them. The er-dram
// regimes are the LSD on two-pass 22-bit keys in 1 024 bins (26-bit keys in
// 64 before PR 28); the rmat ones fold almost every bin through the
// direct-address accumulator (rmat-dram is BENCHMARK.json's rmat_skew
// product). er-dram-pattern's floor is 0.8 × BENCH_PR28.json's 3.5 %. That
// run read er-dram-squeezed at 8.0 % (fuse 36.6 ms, 74.3 in BENCH_PR26.json),
// yet its floor stays 6.8: the run's Triad roof was 17.2 GB/s, and 0.8 × 8.0
// would loosen the floor, which a ratchet never does.
var fuseGateRegimes = []phaseGate{
	{gateFusedRegime, 42.7}, {"er-dram-squeezed", 6.8}, {"er-dram-pattern", 2.8},
	{"rmat-dram-squeezed", 19.5}, {"rmat-dram-pattern", 11.3},
}

// triadElems sizes the Triad arrays behind every pct_of_stream figure: three
// 256 MiB arrays, the size BENCHMARK.json's stream.triad_1t_gbs uses.
const triadElems = 1 << 25

// acceptanceRegimes are the two cache-resident regimes -gate holds to
// cancel-poll overhead ≤ 1 % (against their -cancelpoll twins) and to
// expand ≥ 50 % of Triad.
var acceptanceRegimes = []string{"er-lowcf-squeezed", gateFusedRegime}

func benchCases() []benchCase {
	return []benchCase{
		// Low-cf ER (BenchmarkMultiply's regime). Single-threaded so
		// allocs/op asserts the pooled 0.
		{"er-lowcf-squeezed", "ER", 13, 8, 1, 2, 1, 0, "", false},
		// High-cf R-MAT (cf ≈ 4.6, past the crossover — the regime where the
		// fold carries the most bytes relative to output). Single-threaded,
		// pooled.
		{gateFusedRegime, "RMAT", 10, 32, 1, 2, 1, 0, "", false},
		// The same input over MinPlus as a caller gets it, under Auto (the row
		// kernel), gated against the fused float64 product right above.
		{gateAutoMinPlus, "RMAT", 10, 32, 1, 2, 1, 0, "minplus-auto", false},
		// The same input over MinPlus on PB: a semiring with no typed entry
		// runs the generic layout (internal/semiring → core.MultiplyGeneric),
		// gated against the fused float64 product too.
		{gateMinPlusRegime, "RMAT", 10, 32, 1, 2, 1, 0, "minplus", false},
		// The Boolean/structural regime: the 4-byte pattern layout on the same
		// high-cf input as the squeezed acceptance pair (its 12-byte
		// comparator), and on the low-cf ER input. The 8-byte float32 narrow
		// layout on both workloads. All single-threaded pooled, so the 0
		// allocs/op gate covers every layout.
		{gatePatternRegime, "RMAT", 10, 32, 1, 2, 1, 0, "pattern", false},
		{"er-lowcf-pattern", "ER", 13, 8, 1, 2, 1, 0, "pattern", false},
		{"rmat-highcf-f32", "RMAT", 10, 32, 1, 2, 1, 0, "f32", false},
		{"er-lowcf-f32", "ER", 13, 8, 1, 2, 1, 0, "f32", false},
		// The low-cf ER product at scale 16 — BENCHMARK.json's er_lowcf — where
		// the tuple arena no longer fits the private caches and the squeezed
		// one (50 MB) crosses the non-temporal flush threshold: the regimes
		// behind the DRAM-resident expand gate.
		{"er-dram-squeezed", "ER", 16, 8, 1, 2, 1, 0, "", false},
		{"er-dram-pattern", "ER", 16, 8, 1, 2, 1, 0, "pattern", false},
		// Hypersparse ER, 2^20 rows at 2 per row: the flop rule's 64 bins of
		// 2^14 rows would take 14 + 20 = 34-bit keys, so Multiply runs 256 bins
		// of 12 + 20.
		{"er-hypersparse", "ER", 20, 2, 1, 2, 1, 0, "", false},
		// R-MAT scale 13, edge factor 16, squared — BENCHMARK.json's rmat_skew
		// product: a 228 MB squeezed arena whose power-law bins reach a million
		// tuples over an 18-bit key space, the dense fold's home ground.
		{"rmat-dram-squeezed", "RMAT", 13, 16, 1, 1, 1, 0, "", false},
		{"rmat-dram-pattern", "RMAT", 13, 16, 1, 1, 1, 0, "pattern", false},
		// The same Boolean product as a caller gets it (BENCHMARK.json's
		// rmat_bool_pattern, which passes no algorithm and so stays on PB), under
		// Auto and under PB: reported side by side, not gated.
		{boolAutoRegime, "RMAT", 13, 16, 1, 1, 1, 0, "bool-auto", false},
		{boolPBRegime, "RMAT", 13, 16, 1, 1, 1, 0, "bool-pb", false},
		// R-MAT scale 12, edge factor 16, squared — BENCHMARK.json's rmat_masked
		// inputs — unmasked, then under its own mask through the row kernel's
		// masked form (baseline.SPA with a mask): the masked gate's pair.
		{gateUnmaskedRegime, "RMAT", 12, 16, 1, 1, 1, 0, "", false},
		{gateMaskedRegime, "RMAT", 12, 16, 1, 1, 1, 0, "masked", false},
		// BENCHMARK.json's serve_mix cold product, ER 2^12·d8 squared (cf ≈ 1),
		// on the row kernel (baseline.SPA) and on PB: a gate's pair, SPA ≤ PB.
		{gateServeSPARegime, "ER", 12, 8, 1, 2, 1, 0, "spa", false},
		{gateServePBRegime, "ER", 12, 8, 1, 2, 1, 0, "", false},
		// The same high-cf input under a memory budget, at a shallow budget
		// (~3 bin groups) and a deep one (~9); both are budget-overhead
		// gates' regimes.
		{gateShallowRegime, "RMAT", 10, 32, 1, 2, 1, 16 << 20, "", false},
		{gateBudgetedRegime, "RMAT", 10, 32, 1, 2, 1, 4 << 20, "", false},
		// Hypersparse ER (cf ≈ 1), single-shot and in 64 groups: a gate's pair.
		{gateERSingleRegime, "ER", 18, 4, 1, 2, 1, 0, "", false},
		{gateERBudgetRegime, "ER", 18, 4, 1, 2, 1, 1 << 20, "", false},
		// Sparser ER (cf ≈ 1) and a denser one, auto layout, default threads.
		{"er-sparse", "ER", 14, 4, 1, 2, 0, 0, "", false},
		{"er-dense", "ER", 12, 16, 1, 2, 0, 0, "", false},
		// Skewed R-MAT regimes (Graph500 parameters).
		{"rmat-ef8", "RMAT", 12, 8, 1, 2, 0, 0, "", false},
		{"rmat-ef16", "RMAT", 11, 16, 1, 2, 0, 0, "", false},
		// The acceptance pair at full thread count: the multi-threaded
		// trajectory.
		{"er-lowcf-squeezed-mt", "ER", 13, 8, 1, 2, 0, 0, "", false},
		{"rmat-highcf-fused-mt", "RMAT", 10, 32, 1, 2, 0, 0, "", false},
	}
}

// withCancelPollComparators inserts the no-op-hook twin of every
// acceptanceRegimes case right after it: the two sides of an in-run ratio gate
// run back to back, in one heap and cache state, instead of a dozen regimes
// apart. The production configuration (Cancel nil, fault hooks compiled out)
// only pays the polls' tuple-count arithmetic and an untaken nil check; the
// twin calls a real hook at every poll window, so twin-vs-base bounds the
// production overhead from above — that bound is what the -gate holds ≤ 1%.
func withCancelPollComparators(cases []benchCase) []benchCase {
	out := make([]benchCase, 0, len(cases)+len(acceptanceRegimes))
	for _, c := range cases {
		out = append(out, c)
		if slices.Contains(acceptanceRegimes, c.name) {
			out = append(out, c.cancelPollVariant())
		}
	}
	return out
}

func (c benchCase) generate() (*matrix.CSR, *matrix.CSR) {
	if c.kind == "RMAT" {
		return gen.RMAT(c.scale, c.ef, gen.Graph500Params, c.seedA),
			gen.RMAT(c.scale, c.ef, gen.Graph500Params, c.seedB)
	}
	return gen.ERMatrix(c.scale, c.ef, c.seedA), gen.ERMatrix(c.scale, c.ef, c.seedB)
}

func runBench(cfg *config) {
	nthreads := pickThreads(cfg, 0)
	if nthreads <= 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	report := benchReport{
		Schema: benchSchema,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Reps:   cfg.reps,
		// The roofs the pct_of_stream figures divide by, measured on this
		// host right before the regimes run.
		StreamTriad1GBs: stream.QuickTriad(triadElems, 1, cfg.reps),
		StreamTriadNGBs: stream.QuickTriad(triadElems, nthreads, cfg.reps),
		StreamThreads:   nthreads,
	}
	fmt.Printf("stream triad: %.2f GB/s (1 thread), %.2f GB/s (%d threads)\n",
		report.StreamTriad1GBs, report.StreamTriadNGBs, nthreads)
	fmt.Printf("%-25s %8s %10s %8s %8s %9s %9s %7s\n",
		"regime", "layout", "ns/op", "GFLOPS", "cf", "expand", "fuse", "allocs")
	for _, c := range withCancelPollComparators(benchCases()) {
		r, err := runBenchCase(cfg, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", c.name, err)
			os.Exit(1)
		}
		fillPctStream(&r, &report)
		report.Regimes = append(report.Regimes, r)
		fmt.Printf("%-25s %8s %10d %8.4f %8.2f %7.2fms %7.2fms %7.1f\n",
			r.Name, r.Layout, r.NsPerOp, r.GFLOPS, r.CF,
			r.Expand.Millis, r.Fuse.Millis, r.AllocsPerOp)
	}
	runShardBench(cfg, &report)
	if cfg.jsonOut != "" {
		writeJSON(cfg.jsonOut, &report)
	}
	if cfg.baseline != "" {
		diffBaseline(cfg.baseline, &report)
	}
	if cfg.gate {
		gateBench(&report)
	}
}

// diffBaseline prints the acceptance regimes' ns/op against a prior -json
// report (e.g. the committed BENCH_PR18.json). Informational only: absolute
// ns/op is machine- and load-specific, so cross-run deltas are not gated —
// the poll-overhead question is answered by the within-run cancelpoll pair
// in gateBench, which shares one process, one arena and one thermal state.
func diffBaseline(path string, report *benchReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench baseline: %v\n", err)
		return
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench baseline: decode %s: %v\n", path, err)
		return
	}
	byName := make(map[string]*benchRegime, len(base.Regimes))
	for i := range base.Regimes {
		byName[base.Regimes[i].Name] = &base.Regimes[i]
	}
	for _, r := range report.Regimes {
		b := byName[r.Name]
		if b == nil || b.NsPerOp <= 0 {
			continue
		}
		fmt.Printf("bench baseline: %-33s %12d ns/op vs %12d (%+.1f%%)\n",
			r.Name, r.NsPerOp, b.NsPerOp, 100*(float64(r.NsPerOp)/float64(b.NsPerOp)-1))
	}
}

// fillPctStream converts each phase's GB/s into a percentage of the Triad
// roof that matches the regime's thread count — the paper's "phases run at
// STREAM speed" claim as a per-regime number.
func fillPctStream(r *benchRegime, report *benchReport) {
	roof := report.StreamTriadNGBs
	if r.Threads == 1 {
		roof = report.StreamTriad1GBs
	}
	if roof <= 0 {
		return
	}
	for _, p := range []*benchPhase{&r.Expand, &r.Fuse, &r.Assemble} {
		if p.GBs > 0 {
			p.PctStream = 100 * p.GBs / roof
		}
	}
}

// gateBench is the CI regression gate: on the high-cf R-MAT input the
// 4-byte pattern layout must beat the 12-byte squeezed float64 pipeline on
// the same input by at least 10% (the Boolean-regime acceptance bar), a
// shallow and a deep memory budget at most shallowBudgetGateFactor and
// budgetGateFactor × the single-shot product (hypersparse ER at 1 MiB too),
// the masked product at most maskedGateFactor × the unmasked one, MinPlus on
// PB at most minPlusGateFactor × the squeezed float64 product, the row kernel
// at most serveSPAGateFactor × PB on serve_mix's cold product, and every
// single-threaded pooled regime (allocGateFails) must run allocation-free in
// steady state.
func gateBench(report *benchReport) {
	// The overhead gate certifies the production binary; a tagged build
	// carries live injection hooks and measures the wrong thing.
	if faultinject.Enabled {
		fmt.Fprintln(os.Stderr, "bench gate: refusing to gate a faultinject-tagged binary (hooks compiled in)")
		os.Exit(1)
	}
	byName := make(map[string]*benchRegime, len(report.Regimes))
	for i := range report.Regimes {
		byName[report.Regimes[i].Name] = &report.Regimes[i]
	}
	fused := byName[gateFusedRegime]
	pattern, budgeted, shallow := byName[gatePatternRegime], byName[gateBudgetedRegime], byName[gateShallowRegime]
	unmasked, masked, erSingle, erBudget := byName[gateUnmaskedRegime], byName[gateMaskedRegime], byName[gateERSingleRegime], byName[gateERBudgetRegime]
	minplus, autoMinPlus := byName[gateMinPlusRegime], byName[gateAutoMinPlus]
	serveSPA, servePB := byName[gateServeSPARegime], byName[gateServePBRegime]
	if fused == nil || pattern == nil || budgeted == nil || shallow == nil || unmasked == nil || masked == nil ||
		minplus == nil || autoMinPlus == nil || erSingle == nil || erBudget == nil || serveSPA == nil || servePB == nil {
		fmt.Fprintln(os.Stderr, "bench gate: acceptance regimes missing from the run")
		os.Exit(1)
	}
	// The in-run ratio gates, each a best-of-reps pair on identical input and
	// one thread. The pattern tuple is a third the squeezed size, so every
	// phase moves a third the bytes and 10 % is well inside its margin.
	failed := ratioGate("pattern vs squeezed", pattern, fused, 0.90)
	failed = ratioGate("shallow budget vs single-shot", shallow, fused, shallowBudgetGateFactor) || failed
	failed = ratioGate("deep budget vs single-shot", budgeted, fused, budgetGateFactor) || failed
	failed = ratioGate("hypersparse budget vs single-shot", erBudget, erSingle, budgetGateFactor) || failed
	failed = ratioGate("masked vs unmasked", masked, unmasked, maskedGateFactor) || failed
	failed = ratioGate("minplus on PB vs fused float64", minplus, fused, minPlusGateFactor) || failed
	failed = ratioGate("minplus under Auto vs fused float64", autoMinPlus, fused, autoMinPlusGateFactor) || failed
	failed = ratioGate("row kernel vs PB on the serve product", serveSPA, servePB, serveSPAGateFactor) || failed
	if auto, pb := byName[boolAutoRegime], byName[boolPBRegime]; auto != nil && pb != nil {
		fmt.Printf("bench: Boolean R-MAT 13/16 under Auto (%s) %d ns/op against PB %d ns/op (%.2f×), not gated\n",
			auto.Kernel, auto.NsPerOp, pb.NsPerOp, float64(auto.NsPerOp)/float64(pb.NsPerOp))
	}
	// The fault-containment overhead gate: with the fault hooks compiled out
	// (enforced above via faultinject.Enabled) and a no-op Cancel hook
	// installed, the acceptance regimes must run within 1% of their hook-free
	// twins. The hooked twin pays a real function call at every sub-phase poll
	// window, so this bounds the production cost — poll arithmetic plus an
	// untaken nil check — from above.
	for _, name := range acceptanceRegimes {
		base, hooked := byName[name], byName[name+"-cancelpoll"]
		if base == nil || hooked == nil {
			fmt.Fprintf(os.Stderr, "bench gate: cancel-poll pair %s missing from the run\n", name)
			os.Exit(1)
		}
		overhead := 100 * (float64(hooked.NsPerOp)/float64(base.NsPerOp) - 1)
		if float64(hooked.NsPerOp) > 1.01*float64(base.NsPerOp) {
			fmt.Fprintf(os.Stderr, "bench gate: CANCEL-POLL OVERHEAD on %s: hooked %d ns/op > 1.01 × %d ns/op (%+.2f%%)\n",
				name, hooked.NsPerOp, base.NsPerOp, overhead)
			failed = true
		} else {
			fmt.Printf("bench gate: %s cancel polls %+.2f%% ns/op (≤ 1%% with a live hook; hooks compiled out)\n",
				name, overhead)
		}
	}
	// The paper's near-STREAM claim, tracked as a gate: on the acceptance
	// regimes the expand phase must move at least half of Triad bandwidth
	// (executed loads+stores vs the matching-thread-count Triad roof) — and
	// where the claim is hard, on the DRAM-resident regimes whose flushed
	// lines leave the private caches, still its bar's share of it.
	expandGates := append([]phaseGate(nil), dramGateRegimes...)
	for _, name := range acceptanceRegimes {
		expandGates = append(expandGates, phaseGate{name, 50})
	}
	// ... and the phase that is most of every PB op, the fused sort/fold, at
	// its own floors (fuseGateRegimes).
	for _, pg := range []struct {
		phase string
		gates []phaseGate
		pct   func(*benchRegime) float64
	}{
		{"expand", expandGates, func(r *benchRegime) float64 { return r.Expand.PctStream }},
		{"fuse", fuseGateRegimes, func(r *benchRegime) float64 { return r.Fuse.PctStream }},
	} {
		for _, g := range pg.gates {
			r := byName[g.name]
			if r == nil {
				fmt.Fprintf(os.Stderr, "bench gate: %s-gated regime %s missing from the run\n", pg.phase, g.name)
				os.Exit(1)
			}
			if got := pg.pct(r); got < g.pct {
				fmt.Fprintf(os.Stderr, "bench gate: %s %s at %.1f%% of stream Triad, want ≥ %.1f%%\n",
					g.name, pg.phase, got, g.pct)
				failed = true
			} else {
				fmt.Printf("bench gate: %s %s at %.1f%% of stream Triad (≥ %.1f%%)\n",
					g.name, pg.phase, got, g.pct)
			}
		}
	}
	// The sharded route must be free when the grid is degenerate: the 1×1×1
	// coordinator within a millisecond of the direct Engine call measured
	// alongside it.
	if gateShardBench(report) {
		failed = true
	}
	for _, r := range report.Regimes {
		if allocGateFails(&r) {
			fmt.Fprintf(os.Stderr, "bench gate: %s allocated %.0f/op, want 0\n", r.Name, r.AllocsPerOp)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("bench gate: all single-threaded pooled regimes at 0 allocs/op")
}

// allocGateFails reports a single-threaded pooled regime that allocated in
// every rep (AllocsPerOp is the fewest of any one): a runtime allocation that
// lands in one rep's window is not the engine's, and one the engine makes per
// call lands in all of them. Exempt, none of their allocations a plane:
//   - rmat-highcf-minplus-pb: per call MultiplyOpts builds the A and B
//     index headers core.MultiplyGeneric binds into the pooled engine (2),
//     the fallback reason string (1), the result header (1) and Plan.Stats'
//     own copy (1). Pooling them would make the headers, Plan.Stats and the
//     result alias the workspace — small objects against a public contract.
//   - the products through the public EngineMultiplyOver (minplus-auto,
//     bool-auto, bool-pb): the product is the caller's (its arrays and
//     header; the pipeline's is cloned out), with the planner's closure, the
//     chunk closures, the index headers and the semiring plan around it.
//
// The row kernel's regimes (spa, masked) are not: it pools everything in its
// workspace, the product included, as every other regime here does.
func allocGateFails(r *benchRegime) bool {
	return r.Threads == 1 && r.AllocsPerOp != 0 && !strings.HasPrefix(r.Mode, "minplus") && !strings.HasPrefix(r.Mode, "bool-")
}

// ratioGate holds num's ns/op to at most factor × den's, returning true on failure.
func ratioGate(what string, num, den *benchRegime, factor float64) bool {
	ratio := float64(num.NsPerOp) / float64(den.NsPerOp)
	if ratio > factor {
		fmt.Fprintf(os.Stderr, "bench gate: %s REGRESSION: %s %d ns/op > %.2f × %s %d ns/op (%.2f×)\n",
			what, num.Name, num.NsPerOp, factor, den.Name, den.NsPerOp, ratio)
		return true
	}
	fmt.Printf("bench gate: %s: %s %d ns/op ≤ %.2f × %s %d ns/op (%.2f×)\n",
		what, num.Name, num.NsPerOp, factor, den.Name, den.NsPerOp, ratio)
	return false
}

func runBenchCase(cfg *config, c benchCase) (benchRegime, error) {
	a, b := c.generate()
	acsc := a.ToCSC()
	threads := pickThreads(cfg, c.threadsCap)
	ws := core.NewWorkspace()
	opt := core.Options{Threads: threads, Workspace: ws, MemoryBudgetBytes: c.budget}
	if c.cancelHook {
		opt.Cancel = func() error { return nil }
	}

	// The f32 regimes carry value planes out of band, the semiring ones wrap
	// A and B in generic headers; both are made once, outside the measured loop.
	af32, bf32 := float32s(acsc.Val), float32s(b.Val)
	ac := &semiring.CSCg[float64]{NumRows: acsc.NumRows, NumCols: acsc.NumCols,
		ColPtr: acsc.ColPtr, RowIdx: acsc.RowIdx, Val: acsc.Val}
	br := pbspgemm.Float64Matrix(b)
	truth := func(float64) bool { return true }
	abool, bbool := pbspgemm.MatrixOf(a, truth).ToCSC(), pbspgemm.MatrixOf(b, truth)
	rows := baseline.NewWorkspace()
	var mask *matrix.CSR // the row kernel's regimes: "spa", "masked" under A
	if c.mode == "masked" {
		mask = a
	}
	rowsKernel := c.mode + "-rows"
	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(threads))
	if err != nil {
		return benchRegime{}, err
	}
	var plan semiring.Plan
	var st core.Stats
	run := func() (*core.Stats, error) {
		switch c.mode {
		case "spa", "masked":
			_, bs, err := baseline.SPA(a, b, baseline.Options{Threads: threads, Workspace: rows, Mask: mask})
			if err != nil {
				return nil, err
			}
			st = core.Stats{Total: bs.Total, Flops: bs.Flops, NNZC: bs.NNZC, CF: bs.CF, Kernel: rowsKernel}
			return &st, nil
		case "minplus-auto":
			return over(eng, pbspgemm.Auto, pbspgemm.MinPlus(), ac, br, &st)
		case "bool-auto":
			return over(eng, pbspgemm.Auto, pbspgemm.Boolean(), abool, bbool, &st)
		case "bool-pb":
			return over(eng, pbspgemm.PB, pbspgemm.Boolean(), abool, bbool, &st)
		case "minplus":
			_, err := semiring.MultiplyOpts(semiring.MinPlus(), ac, br,
				semiring.Options{Threads: threads, Workspace: ws, Plan: &plan})
			return plan.Stats, err
		case "pattern":
			_, st, err := core.MultiplyPattern(acsc, b, opt)
			return st, err
		case "f32":
			_, _, st, err := core.MultiplyGeneric(acsc, af32, b, bf32, core.Algebra[float32]{}, opt)
			return st, err
		default:
			_, st, err := core.Multiply(acsc, b, opt)
			return st, err
		}
	}

	// Warm-up grows every pooled buffer; it also yields the shape stats.
	warm, err := run()
	if err != nil {
		return benchRegime{}, err
	}
	flops, nnzc, cf := warm.Flops, warm.NNZC, warm.CF
	layout, tb := warm.Layout, warm.TupleBytes
	// Finish the collection the warm-up's growth (and the previous regime's
	// garbage) set off before the clock and the malloc counter start: a cycle
	// completing mid-measurement costs time and a runtime allocation or two.
	runtime.GC()

	reps := max(cfg.reps, 1)
	if c.mode == "masked" {
		reps *= 3 // a third of the unmasked op: the same window for its best-of
	}
	best, fewest, err := measureReps(reps, run)
	if err != nil {
		return benchRegime{}, err
	}

	return benchRegime{
		Name:        c.name,
		Kind:        c.kind,
		Scale:       c.scale,
		EdgeFactor:  c.ef,
		SeedA:       c.seedA,
		SeedB:       c.seedB,
		Layout:      layout.String(),
		Mode:        c.mode,
		Kernel:      warm.Kernel,
		CancelHook:  c.cancelHook,
		BudgetBytes: c.budget,
		Threads:     threads,
		Flops:       flops,
		NNZC:        nnzc,
		CF:          cf,
		TupleBytes:  tb,
		NsPerOp:     best.Total.Nanoseconds(),
		GFLOPS:      best.GFLOPS(),
		AllocsPerOp: float64(fewest),
		Expand:      benchPhase{Millis: ms64(best.Expand), GBs: best.ExpandGBs()},
		Fuse:        benchPhase{Millis: ms64(best.Fuse), GBs: best.FuseGBs()},
		Assemble:    benchPhase{Millis: ms64(best.Assemble)},
	}, nil
}

// measureReps runs reps calls of run and returns the fastest one's stats and
// the fewest mallocs any one call made.
func measureReps(reps int, run func() (*core.Stats, error)) (*core.Stats, uint64, error) {
	var best *core.Stats
	fewest := uint64(math.MaxUint64)
	for r := 0; r < reps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, err
		}
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
		if best == nil || st.Total < best.Total {
			s := *st
			best = &s
		}
	}
	return best, fewest, nil
}

// over runs a semiring product as a caller gets it, under alg, and reports it
// in *st: the wall time of the call, and the pipeline's phases when PB ran it
// (Kernel "rows" when the row kernel did).
func over[T any](eng *pbspgemm.Engine, alg pbspgemm.Algorithm, sr pbspgemm.Semiring[T], a *pbspgemm.ColMatrix[T],
	b *pbspgemm.Matrix[T], st *core.Stats) (*core.Stats, error) {

	var p pbspgemm.SemiringPlan
	start := time.Now()
	c, err := pbspgemm.EngineMultiplyOver(eng, nil, sr, a, b, pbspgemm.WithAlgorithm(alg), pbspgemm.WithSemiringPlan(&p))
	if err != nil {
		return nil, err
	}
	if *st = (core.Stats{Kernel: "rows"}); p.Stats != nil {
		*st = *p.Stats
	}
	st.Total, st.Flops, st.NNZC = time.Since(start), semiring.Flops(a, b), c.NNZ()
	st.CF = float64(st.Flops) / float64(max(st.NNZC, 1))
	return st, nil
}

func ms64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeJSON writes v to path as indented JSON, exiting on failure.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
