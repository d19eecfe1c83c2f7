package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/roofline"
)

// workloads lists the seven workloads in the manifest's order.
var workloads = []workloadDef{
	{name: "er_lowcf", setup: func(c config) (runner, setupInfo, error) {
		scale := c.pick(16, 11)
		return setupKernel(c, kernelSpec{
			gen: func() (a, b *pbspgemm.CSR) {
				return gen.ERMatrix(scale, 8, c.seed+1), gen.ERMatrix(scale, 8, c.seed+2)
			},
			algorithm: pbspgemm.PB,
		})
	}},
	{name: "rmat_skew", setup: func(c config) (runner, setupInfo, error) {
		return setupKernel(c, kernelSpec{gen: rmatSquare(c, 13, 9), algorithm: pbspgemm.PB})
	}},
	{name: "rmat_bool_pattern", setup: func(c config) (runner, setupInfo, error) {
		return setupKernel(c, kernelSpec{gen: rmatSquare(c, 13, 9), boolean: true})
	}},
	{name: "rmat_masked", setup: func(c config) (runner, setupInfo, error) {
		return setupKernel(c, kernelSpec{gen: rmatSquare(c, 12, 8), masked: true})
	}},
	{name: "er_highcf_auto", setup: func(c config) (runner, setupInfo, error) {
		n, d := int32(c.pick(1024, 256)), c.pick(128, 32)
		return setupKernel(c, kernelSpec{
			gen:       func() (a, b *pbspgemm.CSR) { return gen.ER(n, d, c.seed+1), gen.ER(n, d, c.seed+2) },
			algorithm: pbspgemm.Auto,
		})
	}},
	{name: "serve_mix", setup: setupServe},
	{name: "shard_grid", setup: setupShard},
}

func rmatSquare(c config, full, small int) func() (a, b *pbspgemm.CSR) {
	return func() (a, b *pbspgemm.CSR) {
		m := gen.RMAT(c.pick(full, small), 16, gen.Graph500Params, c.seed+1)
		return m, m
	}
}

// kernelSpec describes one of the five workloads that are a single product
// call on an Engine.
type kernelSpec struct {
	gen       func() (a, b *pbspgemm.CSR)
	algorithm pbspgemm.Algorithm // Engine.Multiply, unless boolean or masked
	boolean   bool               // EngineMultiplyOver(Boolean())
	masked    bool               // Engine.MultiplyMasked(a, b, mask = a)
}

// callStats is what one product call reported, without the product.
type callStats struct {
	elapsed  time.Duration
	pb       *pbspgemm.PhaseStats
	baseline *pbspgemm.BaselineStats
	fastPath bool
	layout   pbspgemm.TupleLayout
}

type kernelRun struct {
	spec  kernelSpec
	eng   *pbspgemm.Engine
	a, b  *pbspgemm.CSR
	want  *pbspgemm.CSR // the oracle; Val is nil when only the structure is checked
	flops int64
	// call runs the product once. The returned matrix has a nil Val on the
	// Boolean workload.
	call func(opts ...pbspgemm.Option) (*pbspgemm.CSR, callStats, error)

	first, last *pbspgemm.CSR
	executed    pbspgemm.Algorithm
	traced      []callStats
}

var ctx = context.Background()

func setupKernel(c config, spec kernelSpec) (runner, setupInfo, error) {
	k := &kernelRun{spec: spec}
	var info setupInfo
	t := time.Now()
	k.a, k.b = spec.gen()
	info.genS = time.Since(t).Seconds()

	t = time.Now()
	k.want = pbspgemm.Reference(k.a, k.b)
	k.flops = countFlops(k.a, k.b)
	switch {
	case spec.boolean:
		k.want.Val = nil
	case spec.masked:
		k.want = intersect(k.want, k.a)
	}
	info.oracleS = time.Since(t).Seconds()
	info.flopsPerOp = k.flops

	var err error
	if k.eng, err = pbspgemm.NewEngine(); err != nil {
		return nil, info, err
	}
	switch {
	case spec.boolean:
		one := func(float64) bool { return true }
		ac, br := pbspgemm.MatrixOf(k.a, one).ToCSC(), pbspgemm.MatrixOf(k.b, one)
		k.call = func(opts ...pbspgemm.Option) (*pbspgemm.CSR, callStats, error) {
			var plan pbspgemm.SemiringPlan
			t := time.Now()
			g, err := pbspgemm.EngineMultiplyOver(k.eng, ctx, pbspgemm.Boolean(), ac, br,
				append(opts, pbspgemm.WithSemiringPlan(&plan))...)
			if err != nil {
				return nil, callStats{}, err
			}
			c := &pbspgemm.CSR{NumRows: g.NumRows, NumCols: g.NumCols, RowPtr: g.RowPtr, ColIdx: g.ColIdx}
			return c, callStats{elapsed: time.Since(t), fastPath: plan.FastPath, layout: plan.Layout}, nil
		}
	case spec.masked:
		k.call = func(opts ...pbspgemm.Option) (*pbspgemm.CSR, callStats, error) {
			t := time.Now()
			c, err := k.eng.MultiplyMasked(ctx, k.a, k.b, k.a, opts...)
			return c, callStats{elapsed: time.Since(t)}, err
		}
	default:
		k.call = func(opts ...pbspgemm.Option) (*pbspgemm.CSR, callStats, error) {
			res, err := k.eng.Multiply(ctx, k.a, k.b, append(opts, pbspgemm.WithAlgorithm(spec.algorithm))...)
			if err != nil {
				return nil, callStats{}, err
			}
			if res.Flops != k.flops {
				return nil, callStats{}, fmt.Errorf("reported %d flops, oracle %d", res.Flops, k.flops)
			}
			k.executed = res.Algorithm
			return res.C, callStats{elapsed: res.Elapsed, pb: res.PB, baseline: res.Baseline}, nil
		}
	}
	// Warm-up: the one-shot beta calibration, workspace growth, page faults.
	for i := 0; i < 2; i++ {
		if err := k.op(nil, -1, i); err != nil {
			return nil, info, fmt.Errorf("warm-up: %w", err)
		}
	}
	k.first, k.last = nil, nil
	return k, info, nil
}

func (k *kernelRun) op(tr *tracer, parent, i int) error {
	sp := tr.begin("engine.call", parent, i)
	c, st, err := k.call()
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		k.traced = append(k.traced, st)
	}
	if k.first == nil {
		k.first = c
	}
	k.last = c
	if c.NumRows != k.want.NumRows || c.NumCols != k.want.NumCols || len(c.ColIdx) != len(k.want.ColIdx) {
		return fmt.Errorf("product is %dx%d with %d entries, oracle %dx%d with %d",
			c.NumRows, c.NumCols, len(c.ColIdx), k.want.NumRows, k.want.NumCols, len(k.want.ColIdx))
	}
	return nil
}

func (k *kernelRun) verify() error {
	if err := sameProduct(k.first, k.want); err != nil {
		return fmt.Errorf("first product: %w", err)
	}
	if err := sameProduct(k.last, k.want); err != nil {
		return fmt.Errorf("last product: %w", err)
	}
	return nil
}

func (k *kernelRun) notes(n map[string]string) {
	if !k.spec.boolean && !k.spec.masked {
		n["algorithm"] = k.executed.String()
	}
}

func (k *kernelRun) close() {}

// timeMs runs f n times and returns its median duration in milliseconds;
// each run is a span called name.
func timeMs(tr *tracer, name string, n int, f func() error) (float64, error) {
	ms := make([]float64, n)
	for i := range ms {
		sp := tr.begin(name, -1, -1)
		t := time.Now()
		err := f()
		ms[i] = float64(time.Since(t)) / 1e6
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ms), nil
}

const probeReps = 5

func (k *kernelRun) layers(tr *tracer, opP50 float64, out map[string]float64) error {
	var err error
	nnzC := float64(len(k.want.ColIdx))
	col := func(f func(callStats) float64) float64 {
		xs := make([]float64, len(k.traced))
		for i, st := range k.traced {
			xs[i] = f(st)
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// The timed ops ran on one thread (the whole benchmark does); the same
	// product on every core is measured here and nowhere else.
	onAllCores(func(cores int) {
		if out["engine.mt_ms_p50"], err = timeMs(tr, "engine.call.mt", probeReps, func() error {
			_, _, err := k.call()
			return err
		}); err == nil {
			out["engine.parallel_efficiency"] = opP50 / (float64(cores) * out["engine.mt_ms_p50"])
		}
	})
	if err != nil {
		return err
	}
	out["engine.t1_ms_p50"] = opP50
	if out["matrix.tocsc_ms"], err = timeMs(tr, "matrix.tocsc", probeReps, func() error {
		k.a.ToCSC()
		return nil
	}); err != nil {
		return err
	}

	switch {
	case k.spec.boolean:
		fast := 0.0
		for _, st := range k.traced {
			if st.fastPath {
				fast++
			}
		}
		out["semiring.fastpath_share"] = fast / float64(len(k.traced))
		out["core.tuple_bytes"] = float64(k.traced[0].layout.TupleBytes())
		one := func(float64) bool { return true }
		out["semiring.convert_ms"], err = timeMs(tr, "semiring.convert", probeReps, func() error {
			pbspgemm.MatrixOf(k.a, one).ToCSC()
			pbspgemm.MatrixOf(k.b, one)
			return nil
		})
		return err
	case k.spec.masked:
		out["semiring.masked_ms"] = opP50
		var full *pbspgemm.Result
		unmasked, err := timeMs(tr, "engine.call.unmasked", probeReps, func() error {
			var err error
			full, err = k.eng.Multiply(ctx, k.a, k.b, pbspgemm.WithAlgorithm(pbspgemm.PB))
			return err
		})
		if err != nil {
			return err
		}
		out["semiring.masked_vs_unmasked"] = opP50 / unmasked
		out["semiring.mask_keep_share"] = nnzC / float64(full.C.NNZ())
		return nil
	}

	// Engine.Multiply workloads: what the call reported, against the span
	// around it.
	spans := tr.durationsMs("engine.call")
	self := make([]float64, len(k.traced))
	for i, st := range k.traced {
		self[i] = spans[i] - ms(st.elapsed)
	}
	out["engine.self_ms"] = median(self)
	kernelMs := col(func(st callStats) float64 { return ms(st.elapsed) })
	out["engine.gflops"] = float64(k.flops) / kernelMs / 1e6
	model := roofline.DefaultModel(out["stream.triad_nt_gbs"])
	nnzA, nnzB := k.a.NNZ(), k.b.NNZ()
	predicted := model.PredictOuter(nnzA, nnzB, k.flops, int64(nnzC))
	if k.executed != pbspgemm.PB {
		predicted = model.PredictColumn(nnzB, k.flops, int64(nnzC))
	}
	out["engine.pct_of_roofline"] = 100 * out["engine.gflops"] / predicted
	if out["matrix.clone_ms"], err = timeMs(tr, "matrix.clone", probeReps, func() error {
		k.want.Clone()
		return nil
	}); err != nil {
		return err
	}

	var plan *pbspgemm.Plan
	if out["engine.plan_ms"], err = timeMs(tr, "engine.plan", probeReps, func() error {
		var err error
		plan, err = k.eng.Plan(ctx, k.a, k.b)
		return err
	}); err != nil {
		return err
	}
	out["planner.nnzc_est_ratio"] = float64(plan.EstNNZC) / nnzC
	// Footprint: what a cold first call on a fresh engine allocates.
	cold, err := pbspgemm.NewEngine()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.begin("engine.call.cold", -1, -1)
	_, err = cold.Multiply(ctx, k.a, k.b, pbspgemm.WithAlgorithm(k.executed))
	tr.end(sp)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out["planner.footprint_ratio"] = float64(plan.PredictedFootprintBytes) / float64(m1.TotalAlloc-m0.TotalAlloc)

	if k.spec.algorithm == pbspgemm.Auto {
		best := math.Inf(1)
		for _, alg := range []pbspgemm.Algorithm{pbspgemm.PB, pbspgemm.Hash} {
			p50, err := timeMs(tr, "engine.call."+alg.String(), probeReps, func() error {
				_, err := k.eng.Multiply(ctx, k.a, k.b, pbspgemm.WithAlgorithm(alg))
				return err
			})
			if err != nil {
				return err
			}
			best = min(best, p50)
		}
		out["planner.regret"] = opP50 / best
	}
	if k.traced[0].baseline != nil {
		out["baseline.hash_symbolic_ms"] = col(func(st callStats) float64 { return ms(st.baseline.Symbolic) })
		out["baseline.hash_numeric_ms"] = col(func(st callStats) float64 { return ms(st.baseline.Numeric) })
		out["baseline.hash_ns_per_flop"] = col(func(st callStats) float64 { return float64(st.baseline.Total) }) / float64(k.flops)
	}
	if k.traced[0].pb != nil {
		pb := func(f func(*pbspgemm.PhaseStats) float64) float64 {
			return col(func(st callStats) float64 { return f(st.pb) })
		}
		// Modelled bytes over time, as a share of the multi-thread Triad.
		pct := func(bytes int64, d time.Duration) float64 {
			return 100 * float64(bytes) / float64(d) / out["stream.triad_nt_gbs"]
		}
		out["core.total_ms"] = pb(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Total) })
		out["core.symbolic_ms"] = pb(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Symbolic) })
		out["core.expand_ms"] = pb(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Expand) })
		out["core.fuse_ms"] = pb(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Fuse) })
		out["core.assemble_ms"] = pb(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Assemble) })
		out["core.expand_pct_of_stream"] = pb(func(s *pbspgemm.PhaseStats) float64 { return pct(s.ExpandBytes, s.Expand) })
		out["core.fuse_pct_of_stream"] = pb(func(s *pbspgemm.PhaseStats) float64 { return pct(s.FusedBytes, s.Fuse) })
		out["core.ns_per_flop"] = out["core.total_ms"] * 1e6 / float64(k.flops)
		out["core.tuple_bytes"] = float64(k.traced[0].pb.TupleBytes)
		out["core.nbins"] = float64(k.traced[0].pb.NBins)
		out["core.sort_stolen_share"] = pb(func(s *pbspgemm.PhaseStats) float64 {
			return float64(s.SortStolen) / float64(max(s.SortOwned+s.SortStolen, 1))
		})
	}
	return nil
}

// countFlops is the oracle's own multiplication count of A·B.
func countFlops(a, b *pbspgemm.CSR) int64 {
	var flops int64
	for _, k := range a.ColIdx {
		flops += b.RowPtr[k+1] - b.RowPtr[k]
	}
	return flops
}

// intersect keeps the entries of c at positions the mask stores.
func intersect(c, mask *pbspgemm.CSR) *pbspgemm.CSR {
	out := &pbspgemm.CSR{NumRows: c.NumRows, NumCols: c.NumCols, RowPtr: make([]int64, c.NumRows+1)}
	for i := int32(0); i < c.NumRows; i++ {
		q, qEnd := mask.RowPtr[i], mask.RowPtr[i+1]
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			for q < qEnd && mask.ColIdx[q] < c.ColIdx[p] {
				q++
			}
			if q < qEnd && mask.ColIdx[q] == c.ColIdx[p] {
				out.ColIdx = append(out.ColIdx, c.ColIdx[p])
				out.Val = append(out.Val, c.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// sameProduct compares got with the oracle entry by entry: the structure
// exactly, and the values (when the oracle has them) to a relative 1e-9,
// since kernels sum a row's products in different orders.
func sameProduct(got, want *pbspgemm.CSR) error {
	if got == nil {
		return fmt.Errorf("no product")
	}
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols || len(got.ColIdx) != len(want.ColIdx) {
		return fmt.Errorf("shape %dx%d/%d, oracle %dx%d/%d", got.NumRows, got.NumCols, len(got.ColIdx),
			want.NumRows, want.NumCols, len(want.ColIdx))
	}
	for i, p := range want.RowPtr {
		if got.RowPtr[i] != p {
			return fmt.Errorf("row pointer %d is %d, oracle %d", i, got.RowPtr[i], p)
		}
	}
	for i, j := range want.ColIdx {
		if got.ColIdx[i] != j {
			return fmt.Errorf("entry %d is in column %d, oracle %d", i, got.ColIdx[i], j)
		}
	}
	for i, v := range want.Val {
		if math.Abs(got.Val[i]-v) > 1e-9*math.Max(1, math.Abs(v)) {
			return fmt.Errorf("entry %d is %g, oracle %g", i, got.Val[i], v)
		}
	}
	return nil
}
