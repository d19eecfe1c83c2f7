package main

// The shard regimes of the bench trajectory: the row-band sharded
// coordinator (internal/shard) measured against a direct Engine call on the
// same input. The 1×1×1 regime is the coordination-overhead acceptance bar —
// a degenerate grid adds only the coordinator's bookkeeping around one
// dispatch, so -gate holds it within shardGateMargin of the direct call. The
// split-grid regime carries the cut/dispatch/stitch cost of a real
// multi-block product, and -gate holds it within shardGridGateRatio of direct.

import (
	"context"
	"fmt"
	"os"
	"time"

	"pbspgemm"
	"pbspgemm/internal/shard"
)

const (
	shardDirectRegime = "shard-direct-pb"
	shardOneRegime    = "shard-1x1-coordinator"
	shardGridRegime   = "shard-grid-coordinator"
)

type benchShardRegime struct {
	Name    string  `json:"name"`
	Grid    string  `json:"grid,omitempty"`
	Blocks  int     `json:"blocks,omitempty"`
	Threads int     `json:"threads"`
	Flops   int64   `json:"flops"`
	NsPerOp int64   `json:"ns_per_op"`
	GFLOPS  float64 `json:"gflops"`
	// VsDirect is this regime's ns/op as a ratio of the direct-call regime
	// measured in the same process (the grid gate keys on it, the 1×1 gate on
	// the difference).
	VsDirect float64 `json:"vs_direct,omitempty"`
}

// runShardBench measures the shard regimes and appends them to the report.
// All three share one Engine, one input pair and one warmed workspace pool,
// so the 1×1-vs-direct ratio isolates pure coordination overhead.
func runShardBench(cfg *config, report *benchReport) {
	threads := pickThreads(cfg, 0)
	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(threads))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench shard: %v\n", err)
		os.Exit(1)
	}
	// Fixed-seed ER at the acceptance pair's working-set scale.
	a := pbspgemm.NewER(1<<13, 8, 1)
	b := pbspgemm.NewER(1<<13, 8, 2)

	one, err := shard.New(shard.Config{Local: eng})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench shard: %v\n", err)
		os.Exit(1)
	}
	// Two explicit pools (with none, a product is one budgeted PB call): one row
	// band each, a PB call under a 1 MiB budget; cut, dispatch and stitch are timed.
	pools := []shard.Backend{shard.NewEnginePool("local", eng, 1), shard.NewEnginePool("other", eng, 1)}
	grid, err := shard.New(shard.Config{Local: eng, Backends: pools, MaxBlockBytes: 1 << 20})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench shard: %v\n", err)
		os.Exit(1)
	}

	reps := max(cfg.reps, 1)
	ctx := context.Background()
	runDirect := func() (int64, string, int, error) {
		res, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
		if err != nil {
			return 0, "", 0, err
		}
		return res.Flops, "", 0, nil
	}
	viaCoord := func(c *shard.Coordinator) func() (int64, string, int, error) {
		return func() (int64, string, int, error) {
			res, err := c.Multiply(ctx, a, b)
			if err != nil {
				return 0, "", 0, err
			}
			return res.Flops, res.Grid.String(), res.Blocks, nil
		}
	}
	// The regimes are measured interleaved — direct, 1×1 and grid take turns
	// rep by rep in one loop — so host load drift hits every side equally
	// and the gated numbers stay coordination overhead, not
	// which-window-was-noisier.
	rs := measureInterleaved(threads, reps,
		[]string{shardDirectRegime, shardOneRegime, shardGridRegime},
		[]func() (int64, string, int, error){runDirect, viaCoord(one), viaCoord(grid)})
	direct, oneR, gridR := rs[0], rs[1], rs[2]
	oneR.VsDirect = float64(oneR.NsPerOp) / float64(direct.NsPerOp)
	gridR.VsDirect = float64(gridR.NsPerOp) / float64(direct.NsPerOp)

	for _, r := range []benchShardRegime{direct, oneR, gridR} {
		extra := ""
		if r.Grid != "" {
			extra = fmt.Sprintf("  grid %s (%d blocks)", r.Grid, r.Blocks)
		}
		if r.VsDirect > 0 {
			extra += fmt.Sprintf("  %.3f× direct", r.VsDirect)
		}
		fmt.Printf("%-25s %25s %10d %8.4f%s\n", r.Name, "", r.NsPerOp, r.GFLOPS, extra)
		report.Shard = append(report.Shard, r)
	}
}

// measureInterleaved measures the runners in turns: one warm-up each (it
// grows the engine's pooled workspaces off the clock), then reps rounds of
// one iteration per runner, best-of kept per side. Sharing each round between
// the sides is what keeps their ratios honest on a loaded host.
func measureInterleaved(threads, reps int, names []string, runs []func() (int64, string, int, error)) []benchShardRegime {
	rs := make([]benchShardRegime, len(runs))
	for r := -1; r < reps; r++ {
		for i, run := range runs {
			start := time.Now()
			f, g, nb, err := run()
			elapsed := time.Since(start).Nanoseconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench shard %s: %v\n", names[i], err)
				os.Exit(1)
			}
			if r < 0 {
				rs[i] = benchShardRegime{Name: names[i], Threads: threads}
			} else if rs[i].NsPerOp == 0 || elapsed < rs[i].NsPerOp {
				rs[i].NsPerOp = elapsed
			}
			rs[i].Flops, rs[i].Grid, rs[i].Blocks = f, g, nb
		}
	}
	for i := range rs {
		rs[i].GFLOPS = float64(rs[i].Flops) / float64(rs[i].NsPerOp)
	}
	return rs
}

// shardGateMargin is what the 1×1×1 coordinator may add to the direct Engine
// call it wraps. Absolute, not a ratio: the coordinator's cost is a fixed
// ~0.3 ms of bookkeeping, and as a share of an 8–10 ms product it sat so close
// to the old 5 % bar that the gate failed on runner noise at any commit.
const shardGateMargin = time.Millisecond

// shardGridGateRatio is what a split grid may cost over the direct call: the
// block products themselves run near direct speed, so what is left — one cut,
// dispatch, per-block set-up and the stitch — must stay under it.
const shardGridGateRatio = 2.0

// gateShardBench holds the 1×1×1 coordinator within shardGateMargin of the
// direct Engine call — the sharded route must be free when the grid is
// degenerate — and the split grid within shardGridGateRatio of it (best of
// reps each, measured interleaved). Returns true on failure.
func gateShardBench(report *benchReport) bool {
	var direct, one, grid *benchShardRegime
	for i := range report.Shard {
		switch report.Shard[i].Name {
		case shardDirectRegime:
			direct = &report.Shard[i]
		case shardOneRegime:
			one = &report.Shard[i]
		case shardGridRegime:
			grid = &report.Shard[i]
		}
	}
	if direct == nil || one == nil || grid == nil {
		fmt.Fprintln(os.Stderr, "bench gate: shard regimes missing from the run")
		os.Exit(1)
	}
	failed := false
	over := time.Duration(one.NsPerOp - direct.NsPerOp)
	if over > shardGateMargin {
		fmt.Fprintf(os.Stderr, "bench gate: SHARD OVERHEAD on %s: 1x1 coordinator %d ns/op − direct %d ns/op = %v > %v (%.3f×)\n",
			shardOneRegime, one.NsPerOp, direct.NsPerOp, over, shardGateMargin, one.VsDirect)
		failed = true
	} else {
		fmt.Printf("bench gate: 1x1 coordinator %d ns/op − direct %d ns/op = %v ≤ %v (%.3f×)\n",
			one.NsPerOp, direct.NsPerOp, over, shardGateMargin, one.VsDirect)
	}
	if grid.VsDirect > shardGridGateRatio {
		fmt.Fprintf(os.Stderr, "bench gate: SHARD OVERHEAD on %s: grid %s %d ns/op is %.3f× direct %d ns/op, want ≤ %g×\n",
			shardGridRegime, grid.Grid, grid.NsPerOp, grid.VsDirect, direct.NsPerOp, shardGridGateRatio)
		failed = true
	} else {
		fmt.Printf("bench gate: grid %s coordinator %d ns/op is %.3f× direct %d ns/op (≤ %g×)\n",
			grid.Grid, grid.NsPerOp, grid.VsDirect, direct.NsPerOp, shardGridGateRatio)
	}
	return failed
}
