package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"pbspgemm"
	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
	"pbspgemm/internal/roofline"
)

// plannerWorkload is one point of the sweep; gen builds its factors, so only
// one point's matrices are alive at a time. A named point runs whatever its
// size; a fitOnly one times the kernels for the refit and is not scored: it has
// too few rows for the planner's sample.
type plannerWorkload struct {
	name           string
	gen            func() (a, b *pbspgemm.CSR)
	named, fitOnly bool
}

// plannerWorkloads is the sweep the planner's cost constants are fitted on
// (internal/roofline/cost.go quotes its residuals): compression factor ×
// {ER, R-MAT} × cols(B), plus the eight products the SPA kernel was sized on
// (README "Choosing an algorithm") and two hypersparse ones past 2^16 columns. An ER point of
// compression factor cf multiplies uniform A (rows × k) and B (k × cols) with d
// entries a row each, d·d = x·cols(B) and x/(1−e^−x) = cf; an R-MAT point
// squares a scale-s matrix at the edge factor that doubles with the cf step,
// and its cf is whatever comes out. A point keeps as many rows of A as its flop
// budget allows but at least 512 — the planner samples 32 rows whatever they
// cost, so fewer would time the estimate, not the pick — and runPlanner skips
// it when that takes more than five budgets (PB expands 12 B a flop): the
// high-cf corner at large cols(B) is not scored. Three 16-row points past 2^16
// columns time the kernels there all the same, for the refit (-full).
func plannerWorkloads(cfg *config) []plannerWorkload {
	scales := []int{10, 12, 14}
	if cfg.full {
		scales = []int{10, 11, 12, 13, 14, 15, 16}
	}
	s, budget := cfg.seed, plannerFlopBudget(cfg)
	uniformER := func(scale int, cf float64, minRows int64) plannerWorkload {
		n := int32(1) << scale
		d := max(1, int(math.Round(math.Sqrt(perRowLoad(cf)*float64(n)))))
		return plannerWorkload{fmt.Sprintf("ER 2^%d cf~%g (d=%d)", scale, cf, d), func() (a, b *pbspgemm.CSR) {
			return uniform(int32(max(minRows, budget/int64(d*d))), min(n, 4096), d, s), uniform(min(n, 4096), n, d, s+1)
		}, minRows < 512, minRows < 512}
	}
	var ws []plannerWorkload
	for _, scale := range scales {
		n := int32(1) << scale
		for step, cf := range []float64{1, 2, 4, 8, 16, 32} {
			ws = append(ws, uniformER(scale, cf, 512))
			ws = append(ws, plannerWorkload{name: fmt.Sprintf("RMAT %d/%d squared", scale, 2<<step), gen: func() (a, b *pbspgemm.CSR) {
				b = pbspgemm.NewRMAT(scale, 2<<step, s+2)
				rows := int64(float64(budget) * float64(n) / float64(pbspgemm.Flops(b, b)))
				return matrix.RowBand(b, 0, int32(max(512, min(rows, int64(n))))), b
			}})
		}
	}
	er := func(scale, d int) plannerWorkload {
		return plannerWorkload{name: fmt.Sprintf("ER 2^%d d=%d", scale, d), named: true, gen: func() (a, b *pbspgemm.CSR) {
			return pbspgemm.NewER(1<<scale, d, s+3), pbspgemm.NewER(1<<scale, d, s+4)
		}}
	}
	ws = append(ws, er(10, 128), er(12, 32), plannerWorkload{name: "RMAT 10/32 pair", named: true, gen: func() (a, b *pbspgemm.CSR) {
		return pbspgemm.NewRMAT(10, 32, s+5), pbspgemm.NewRMAT(10, 32, s+6)
	}})
	if cfg.full {
		ws = append(ws, er(12, 8), er(14, 16), er(15, 8), er(16, 8), plannerWorkload{name: "RMAT 13/16 squared", named: true, gen: func() (a, b *pbspgemm.CSR) {
			a = pbspgemm.NewRMAT(13, 16, s+7)
			return a, a
		}}, uniformER(17, 2, 16), uniformER(17, 8, 16), uniformER(18, 4, 16))
	}
	// Past 2^16 columns, on rows far sparser than cf 1 needs: where PB wins.
	return append(ws, er(17, 8), er(18, 4))
}

// plannerFlopBudget is the product size the sweep's grid points aim at.
func plannerFlopBudget(cfg *config) int64 {
	if cfg.full {
		return 8 << 20
	}
	return 4 << 20
}

// perRowLoad solves x/(1−e^−x) = cf: the products per output row, as a share of
// cols(B), at which uniformly random columns collide cf-fold. cf 1 is x → 0;
// 1/16 stands in for it.
func perRowLoad(cf float64) float64 {
	if cf <= 1 {
		return 1.0 / 16
	}
	x := cf
	for range 50 {
		x = cf * (1 - math.Exp(-x))
	}
	return x
}

// uniform returns a rows × cols matrix with d distinct uniformly random columns
// in every row.
func uniform(rows, cols int32, d int, seed uint64) *pbspgemm.CSR {
	r := gen.NewRNG(seed)
	d = min(d, int(cols))
	m := matrix.NewCSR(rows, cols, int64(rows)*int64(d))
	seen := make(map[int32]bool, d)
	for i := int32(0); i < rows; i++ {
		clear(seen)
		row := m.ColIdx[int(i)*d : int(i+1)*d]
		for j := range row {
			c := r.Intn(cols)
			for seen[c] {
				c = r.Intn(cols)
			}
			seen[c], row[j] = true, c
		}
		slices.Sort(row)
		m.RowPtr[i+1] = int64(i+1) * int64(d)
	}
	for p := range m.Val {
		m.Val[p] = r.Float64()
	}
	return m
}

// plannerCaseJSON is one sweep point's machine-readable record.
type plannerCaseJSON struct {
	Workload   string  `json:"workload"`
	Rows       int32   `json:"rows"`
	Cols       int32   `json:"cols"`
	NNZA       int64   `json:"nnz_a"`
	NNZB       int64   `json:"nnz_b"`
	Flops      int64   `json:"flops"`
	NNZC       int64   `json:"nnzc"`
	EstNNZC    int64   `json:"est_nnzc"`
	CF         float64 `json:"cf"`
	PBMs       float64 `json:"pb_ms"`
	SPAMs      float64 `json:"spa_ms"`
	AutoMs     float64 `json:"auto_ms"`
	PlanMs     float64 `json:"plan_ms"`
	PredPBMs   float64 `json:"predicted_pb_ms"`
	PredSPAMs  float64 `json:"predicted_spa_ms"`
	Chosen     string  `json:"chosen"`
	Regret     float64 `json:"regret"`   // (plan + the chosen kernel) over min(PB, SPA)
	FitOnly    bool    `json:"fit_only"` // too few rows for the planner's sample: regret not scored
	PBExpandMs float64 `json:"pb_expand_ms"`
	PBFuseMs   float64 `json:"pb_fuse_ms"`
}

// plannerJSON is the sweep's machine-readable report CI archives per commit.
type plannerJSON struct {
	Threads   int               `json:"threads"`
	Reps      int               `json:"reps"`
	Seed      uint64            `json:"seed"`
	Cases     []plannerCaseJSON `json:"cases"`
	MaxRegret float64           `json:"max_regret"`
}

// plannerGateRegret is the regret no sweep point may exceed under -gate.
const plannerGateRegret = 1.25

// runPlanner measures PB and SPA, the two kernels Auto chooses between, on
// every sweep point, and scores Auto against the faster: the plan's predicted
// times beside the measured ones, and plan + chosen kernel over min(PB, SPA).
func runPlanner(cfg *config) {
	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(cfg.threads))
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	msOf := func(d time.Duration) float64 { return float64(d) / 1e6 }

	tb := metrics.NewTable("Planner sweep — Auto vs min(PB, SPA), times in ms",
		"workload", "rows", "flops", "cf", "PB ms", "SPA ms", "pred PB", "pred SPA", "chosen", "regret", "plan ms", "est/nnzC")
	report := plannerJSON{Threads: cfg.threads, Reps: cfg.reps, Seed: cfg.seed}
	var pbTerms, spaTerms [][]float64 // what a refit regresses the measured times on
	var pbNS, spaNS, pbInSPA []float64
	for _, w := range plannerWorkloads(cfg) {
		a, b := w.gen()
		if flops := pbspgemm.Flops(a, b); !w.named && (flops < 1<<20 || flops > 5*plannerFlopBudget(cfg)) {
			fmt.Printf("skipped %s: %d flops (under 1 Mi is call overhead, over five budgets is PB's arena)\n", w.name, flops)
			continue
		}
		runtime.GC() // the last point's matrices are not this one's cost
		// Best wall time of cfg.reps calls a kernel and of as many plans, the
		// kernels taking turns so that drift falls on both alike. An Auto call is
		// its plan and then its kernel, and is scored as their sum: timed as a third
		// contestant it would draw the freshly mapped output span every round.
		algs := [2]pbspgemm.Algorithm{pbspgemm.PB, pbspgemm.SPA}
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		tPlan := time.Duration(math.MaxInt64)
		var last [2]*pbspgemm.Result
		var plan *pbspgemm.Plan
		for r := 0; r < cfg.reps; r++ {
			for i, alg := range algs {
				start := time.Now()
				if last[i], err = eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(alg)); err != nil {
					fmt.Fprintf(os.Stderr, "%s/%v: %v\n", w.name, alg, err)
					os.Exit(1)
				}
				best[i] = min(best[i], time.Since(start))
			}
			start := time.Now()
			if plan, err = eng.Plan(ctx, a, b); err != nil {
				fmt.Fprintf(os.Stderr, "%s: plan: %v\n", w.name, err)
				os.Exit(1)
			}
			tPlan = min(tPlan, time.Since(start))
		}
		tPB, tSPA, pb := best[0], best[1], last[0]
		tAuto := tPlan + tPB
		if plan.Chosen == pbspgemm.SPA {
			tAuto = tPlan + tSPA
		}
		c := plannerCaseJSON{
			Workload: w.name, Rows: a.NumRows, Cols: b.NumCols, NNZA: a.NNZ(), NNZB: b.NNZ(), Flops: pb.Flops, NNZC: pb.C.NNZ(),
			EstNNZC: plan.EstNNZC, CF: pb.CF, PBMs: msOf(tPB), SPAMs: msOf(tSPA), AutoMs: msOf(tAuto), PlanMs: msOf(tPlan),
			PredPBMs: predictedMs(plan.Flops, plan.PredictedOuterGFLOPS), PredSPAMs: predictedMs(plan.Flops, plan.PredictedColumnGFLOPS),
			Chosen: plan.Chosen.String(), Regret: float64(tAuto) / float64(min(tPB, tSPA)), FitOnly: w.fitOnly,
			PBExpandMs: msOf(pb.PB.Expand), PBFuseMs: msOf(pb.PB.Fuse),
		}
		report.Cases = append(report.Cases, c)
		if !c.FitOnly {
			report.MaxRegret = max(report.MaxRegret, c.Regret)
		}
		shape := roofline.Product{Rows: a.NumRows, Cols: b.NumCols, NNZA: a.NNZ(), NNZB: b.NNZ(),
			Flops: pb.Flops, NNZC: pb.C.NNZ(), ValueBytes: 8, L2CacheBytes: core.DefaultL2CacheBytes}
		pt, st := shape.PBTerms(), shape.SPATerms()
		pbTerms, spaTerms = append(pbTerms, pt[:]), append(spaTerms, st[:])
		// PB's time is also priced in the committed SPA model's units: the kernels
		// take turns, so SPA's measured over predicted time cancels the box's speed.
		pbNS, spaNS, pbInSPA = append(pbNS, c.PBMs*1e6), append(spaNS, c.SPAMs*1e6), append(pbInSPA, c.PBMs/c.SPAMs*shape.PredictSPA())
		regret := fmt.Sprintf("%.2f", c.Regret)
		if c.FitOnly {
			regret = "(" + regret + ")"
		}
		tb.AddRow(c.Workload, c.Rows, c.Flops, c.CF, c.PBMs, c.SPAMs, c.PredPBMs, c.PredSPAMs, c.Chosen,
			regret, c.PlanMs, float64(c.EstNNZC)/float64(max(c.NNZC, 1)))
	}
	tb.Render(os.Stdout)
	fmt.Printf("\nworst regret %.2f over %d points, bracketed ones not scored (gate: %.2f)\n", report.MaxRegret, len(report.Cases), plannerGateRegret)
	if cfg.full {
		// What roofline.PBCostNS / SPACostNS would be if fitted on this run's wall
		// times (commit them only from a quiet -threads 1 run).
		refit("roofline.PBCostNS", pbTerms, pbNS, roofline.PBCostNS[:])
		refit("roofline.SPACostNS", spaTerms, spaNS, roofline.SPACostNS[:])
		refit("roofline.PBCostNS in SPA's units", pbTerms, pbInSPA, roofline.PBCostNS[:])
	}

	if cfg.jsonOut != "" {
		writeJSON(cfg.jsonOut, &report)
	}
	if cfg.gate && report.MaxRegret > plannerGateRegret {
		fmt.Fprintf(os.Stderr, "planner gate: regret %.2f exceeds %.2f\n", report.MaxRegret, plannerGateRegret)
		os.Exit(1)
	}
}

// refit prints the constants that minimise the relative squared error of
// terms·constants against the measured nanoseconds, with their residuals and
// those of the committed constants. Points under 200 k flops are left out: their
// times are call overhead.
func refit(name string, terms [][]float64, ns, committed []float64) {
	k := len(committed)
	normal := make([][]float64, k) // the normal equations, augmented
	for i := range normal {
		normal[i] = make([]float64, k+1)
	}
	var rows [][]float64
	var want []float64
	for r, t := range terms {
		if t[0]+t[1] < 200e3 {
			continue
		}
		rows, want = append(rows, t), append(want, ns[r])
		for i := range k {
			normal[i][k] += t[i] / ns[r]
			for j := range k {
				normal[i][j] += t[i] * t[j] / (ns[r] * ns[r])
			}
		}
	}
	fitted := make([]float64, k)
	for i := range k { // Gauss-Jordan; a term no point exercises keeps its committed constant
		if normal[i][i] == 0 {
			normal[i][i], normal[i][k] = 1, committed[i]
		}
		for r := range k {
			if f := normal[r][i] / normal[i][i]; r != i {
				for c := i; c <= k; c++ {
					normal[r][c] -= f * normal[i][c]
				}
			}
		}
	}
	for i := range k {
		fitted[i] = normal[i][k] / normal[i][i]
	}
	residuals := func(cost []float64) (median, p90, worst float64) {
		var rel []float64
		for r, t := range rows {
			var pred float64
			for i, c := range cost {
				pred += t[i] * c
			}
			rel = append(rel, math.Abs(pred-want[r])/want[r])
		}
		slices.Sort(rel)
		return rel[len(rel)/2], rel[len(rel)*9/10], rel[len(rel)-1]
	}
	fm, f9, fw := residuals(fitted)
	cm, c9, cw := residuals(committed)
	fmt.Printf("%s: refit %.3g (residual median %.0f%% p90 %.0f%% worst %.0f%%); committed %.3g (%.0f%% / %.0f%% / %.0f%%), %d points\n",
		name, fitted, 100*fm, 100*f9, 100*fw, committed, 100*cm, 100*c9, 100*cw, len(rows))
}

// predictedMs turns a plan's predicted GFLOPS back into the time it stands for.
func predictedMs(flops int64, gflops float64) float64 {
	if gflops <= 0 {
		return 0
	}
	return float64(flops) / gflops / 1e6
}
