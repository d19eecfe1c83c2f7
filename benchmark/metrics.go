package main

import (
	"math"
	"sort"
)

// metricDef is one named metric. BENCHMARK.json at the repository root lists
// the same names, units and directions (a test keeps the two in step); the
// layer and the interaction note exist only here and in README.md, because
// the manifest's entries carry exactly name, unit and better.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Layer is the module a per-layer metric belongs to; Moves names the
	// end-to-end metric and workload it is expected to move.
	Layer string
	Moves string
}

// endToEnd is reported by every workload with tracing off. The timings are at
// reference machine speed (speed.go). The bounds of the timings and of the
// resident set are the widest the manifest allows (README.md has the spreads
// measured on unmodified code).
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mib_per_op", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	kernelPB  = "er_lowcf, rmat_skew"
	kernelAll = "er_lowcf, rmat_skew, rmat_bool_pattern, rmat_masked, er_highcf_auto"
)

// perLayer is reported by the traced run. A workload that does not exercise
// a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{Name: "stream.triad_1t_gbs", Unit: "GB/s", Better: "higher", Layer: "internal/stream", Moves: "yardstick: moves nothing"},
	{Name: "stream.triad_nt_gbs", Unit: "GB/s", Better: "higher", Layer: "internal/stream", Moves: "yardstick: denominator of every pct_of_stream"},
	{Name: "stream.quicktriad_gbs", Unit: "GB/s", Better: "higher", Layer: "internal/stream", Moves: "planner input; far from triad_nt shows only as planner.regret on er_highcf_auto"},

	{Name: "core.total_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "op_ms_p50, ops_per_s on " + kernelPB},
	{Name: "core.symbolic_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "op_ms_p50 on " + kernelPB},
	{Name: "core.expand_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "op_ms_p50, ops_per_s on " + kernelPB + " (about 35 % of the op on er_lowcf); at most 1/6 on shard_grid"},
	{Name: "core.fuse_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "op_ms_p50, ops_per_s on " + kernelPB + " (about 40 % of the op on er_lowcf); nothing on er_highcf_auto, rmat_masked, serve_mix hits"},
	{Name: "core.assemble_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "op_ms_p50 on " + kernelPB},
	{Name: "core.expand_pct_of_stream", Unit: "%", Better: "higher", Layer: "internal/core", Moves: "core.expand_ms on " + kernelPB},
	{Name: "core.fuse_pct_of_stream", Unit: "%", Better: "higher", Layer: "internal/core", Moves: "core.fuse_ms on " + kernelPB},
	{Name: "core.ns_per_flop", Unit: "ns", Better: "lower", Layer: "internal/core", Moves: "ops_per_s on " + kernelPB},
	{Name: "core.tuple_bytes", Unit: "B", Better: "lower", Layer: "internal/core", Moves: "peak_rss_mib and core.expand_ms on " + kernelPB + ", rmat_bool_pattern"},
	{Name: "core.nbins", Unit: "count", Better: "lower", Layer: "internal/core", Moves: "core.fuse_ms on " + kernelPB},
	{Name: "core.sort_stolen_share", Unit: "ratio", Better: "lower", Layer: "internal/core", Moves: "cpu_s_per_op on rmat_skew (oversized bins are split and stolen)"},

	{Name: "matrix.tocsc_ms", Unit: "ms", Better: "lower", Layer: "internal/matrix", Moves: "engine.self_ms, op_ms_p50 on " + kernelAll},
	{Name: "matrix.clone_ms", Unit: "ms", Better: "lower", Layer: "internal/matrix", Moves: "engine.self_ms, op_ms_p50, alloc_mib_per_op on er_lowcf (C as large as the expansion); small on er_highcf_auto"},
	{Name: "matrix.block_extract_ms", Unit: "ms", Better: "lower", Layer: "internal/matrix", Moves: "shard.planblocks_ms, op_ms_p50 on shard_grid"},

	{Name: "engine.self_ms", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op_ms_p50 on er_lowcf, rmat_skew, er_highcf_auto, in proportion to nnz(C)"},
	{Name: "engine.plan_ms", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op_ms_p50 on er_highcf_auto; serve.cold_ms_p50 on serve_mix; shard.planblocks_ms on shard_grid"},
	{Name: "engine.gflops", Unit: "GFLOPS", Better: "higher", Layer: "engine", Moves: "ops_per_s on er_lowcf, rmat_skew, er_highcf_auto"},
	{Name: "engine.pct_of_roofline", Unit: "%", Better: "higher", Layer: "engine", Moves: "engine.gflops on er_lowcf, rmat_skew, er_highcf_auto"},
	{Name: "engine.t1_ms_p50", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op_ms_p50 on " + kernelAll + " (the timed ops are the single-thread baseline)"},
	{Name: "engine.mt_ms_p50", Unit: "ms", Better: "lower", Layer: "engine", Moves: "no end-to-end metric: the product on min(nproc, 4) cores, too unsteady in the sandbox to bound"},
	{Name: "engine.parallel_efficiency", Unit: "ratio", Better: "higher", Layer: "engine", Moves: "engine.mt_ms_p50 on " + kernelAll},

	{Name: "planner.regret", Unit: "ratio", Better: "lower", Layer: "planner", Moves: "op_ms_p50 on er_highcf_auto only (PB is pinned elsewhere)"},
	{Name: "planner.nnzc_est_ratio", Unit: "ratio", Better: "lower", Layer: "planner", Moves: "planner.regret and planner.footprint_ratio"},
	{Name: "planner.footprint_ratio", Unit: "ratio", Better: "lower", Layer: "planner", Moves: "serve.shed_share on serve_mix; the grid, hence shard.blocks, on shard_grid"},

	{Name: "baseline.hash_symbolic_ms", Unit: "ms", Better: "lower", Layer: "internal/baseline", Moves: "op_ms_p50 on er_highcf_auto only"},
	{Name: "baseline.hash_numeric_ms", Unit: "ms", Better: "lower", Layer: "internal/baseline", Moves: "op_ms_p50 on er_highcf_auto only"},
	{Name: "baseline.hash_ns_per_flop", Unit: "ns", Better: "lower", Layer: "internal/baseline", Moves: "ops_per_s on er_highcf_auto only"},

	{Name: "semiring.masked_ms", Unit: "ms", Better: "lower", Layer: "internal/semiring", Moves: "op_ms_p50 on rmat_masked"},
	{Name: "semiring.masked_vs_unmasked", Unit: "ratio", Better: "lower", Layer: "internal/semiring", Moves: "op_ms_p50 on rmat_masked"},
	{Name: "semiring.mask_keep_share", Unit: "ratio", Better: "lower", Layer: "internal/semiring", Moves: "input property of rmat_masked: moves nothing"},
	{Name: "semiring.fastpath_share", Unit: "ratio", Better: "higher", Layer: "internal/semiring", Moves: "op_ms_p50 on rmat_bool_pattern; below 1 there is a routing regression"},
	{Name: "semiring.convert_ms", Unit: "ms", Better: "lower", Layer: "internal/semiring", Moves: "setup_s on rmat_bool_pattern (paid by the caller, outside the op)"},

	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "nothing end to end (six hits are 2 % of a round of serve_mix); serve.http_overhead_ms"},
	{Name: "serve.cold_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "op_ms_p50, op_ms_tail, ops_per_s on serve_mix (two cold products are three quarters of a round)"},
	{Name: "serve.binary_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "op_ms_p50, op_ms_tail, ops_per_s on serve_mix (a fifth of a round)"},
	{Name: "serve.upload_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "op_ms_p50 on serve_mix (a twentieth of a round)"},
	{Name: "serve.handler_hit_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "serve.hit_ms_p50"},
	{Name: "serve.handler_cold_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "serve.cold_ms_p50"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "serve.hit_ms_p50"},
	{Name: "serve.plan_ms_p50", Unit: "ms", Better: "lower", Layer: "internal/serve", Moves: "serve.cold_ms_p50"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher", Layer: "internal/serve", Moves: "op_ms_p50, cpu_s_per_op on serve_mix"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Layer: "internal/serve", Moves: "serve.cache_hit_share"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher", Layer: "internal/serve", Moves: "cpu_s_per_op on serve_mix"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower", Layer: "internal/serve", Moves: "failed operations on serve_mix"},
	{Name: "serve.engine_busy_share", Unit: "ratio", Better: "lower", Layer: "internal/serve", Moves: "ops_per_s, cpu_s_per_op on serve_mix"},

	{Name: "mmio.write_binary_mbs", Unit: "MB/s", Better: "higher", Layer: "internal/mmio", Moves: "serve.binary_ms_p50, hence op_ms_p50 and ops_per_s on serve_mix only"},
	{Name: "mmio.read_binary_mbs", Unit: "MB/s", Better: "higher", Layer: "internal/mmio", Moves: "serve.upload_ms_p50, hence op_ms_p50 and ops_per_s on serve_mix only"},
	{Name: "mmio.read_text_mbs", Unit: "MB/s", Better: "higher", Layer: "internal/mmio", Moves: "text uploads: no workload sends one, so nothing"},

	{Name: "shard.vs_direct", Unit: "ratio", Better: "lower", Layer: "internal/shard", Moves: "op_ms_p50 on shard_grid only"},
	{Name: "shard.planblocks_ms", Unit: "ms", Better: "lower", Layer: "internal/shard", Moves: "op_ms_p50 on shard_grid only"},
	{Name: "shard.blocks_serial_ms", Unit: "ms", Better: "lower", Layer: "internal/shard", Moves: "op_ms_p50 on shard_grid only"},
	{Name: "shard.reduce_ms", Unit: "ms", Better: "lower", Layer: "internal/shard", Moves: "op_ms_p50 on shard_grid only"},
	{Name: "shard.residual_ms", Unit: "ms", Better: "lower", Layer: "internal/shard", Moves: "op_ms_p50 on shard_grid only (grid growth, dispatch, stitch)"},
	{Name: "shard.blocks", Unit: "count", Better: "lower", Layer: "internal/shard", Moves: "shard.blocks_serial_ms, shard.planblocks_ms"},
	{Name: "shard.attempts_per_block", Unit: "ratio", Better: "lower", Layer: "internal/shard", Moves: "cpu_s_per_op on shard_grid"},
	{Name: "shard.hedges_per_op", Unit: "count", Better: "lower", Layer: "internal/shard", Moves: "cpu_s_per_op on shard_grid"},
	{Name: "shard.fallbacks_per_op", Unit: "count", Better: "lower", Layer: "internal/shard", Moves: "op_ms_tail on shard_grid"},

	{Name: "gen.generate_s", Unit: "s", Better: "lower", Layer: "internal/gen", Moves: "setup_s on every workload"},
	{Name: "oracle.reference_s", Unit: "s", Better: "lower", Layer: "benchmark", Moves: "setup_s on every workload"},
	{Name: "machine.slowdown", Unit: "ratio", Better: "lower", Layer: "benchmark", Moves: "every per-layer time, which is wall-clock; the end-to-end timings are already divided by it"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "benchmark", Moves: "nothing: mean traced op over mean untraced op, minus one"},
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median sorts xs in place and returns its nearest-rank median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// tailRank is the rank (index into the ascending samples) of the highest
// percentile, capped at p99, that still has at least ten of n samples beyond
// it, and that percentile. With fewer than twenty samples no percentile above
// the median qualifies and the median's rank is returned.
func tailRank(n int) (rank int, p float64) {
	median := (n+1)/2 - 1
	p99 := int(math.Ceil(0.99*float64(n))) - 1
	rank = max(min(n-11, p99), median, 0)
	return rank, float64(rank+1) / float64(n)
}
