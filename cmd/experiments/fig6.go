package main

import (
	"fmt"
	"os"
	"slices"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
)

// fig6Input generates the parameter-selection workload: ER scale 20, edge
// factor 4 in the paper; scale 16 at laptop scale.
func fig6Input(cfg *config) (*matrix.CSC, *matrix.CSR) {
	scale := 16
	if cfg.full {
		scale = 20
	}
	a := gen.ERMatrix(scale, 4, cfg.seed)
	b := gen.ERMatrix(scale, 4, cfg.seed+1)
	fmt.Printf("workload: ER scale %d, edge factor 4 (%s nnz each)\n\n",
		scale, metrics.HumanCount(a.NNZ()))
	return a.ToCSC(), b
}

// pbBest runs core.Multiply reps times, returning the stats of the fastest
// total run.
func pbBest(cfg *config, a *matrix.CSC, b *matrix.CSR, opt core.Options) *core.Stats {
	opt.Threads = pickThreads(cfg, opt.Threads)
	var best *core.Stats
	for r := 0; r < cfg.reps; r++ {
		_, st, err := core.Multiply(a, b, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multiply failed: %v\n", err)
			os.Exit(1)
		}
		if best == nil || st.Total < best.Total {
			best = st
		}
	}
	return best
}

// runFig6a sweeps the local-bin width and reports expand-phase time and
// sustained bandwidth (Fig. 6a: small bins under-utilize cache lines) on each
// of the four tuple layouts. The engine rounds every request to a multiple of
// 16 tuples of the run's layout and never goes below 16, so the sweep's low
// end is one line of keys per flush, not the paper's single tuple; the column
// shows the capacity run. Widths take turns within each rep on one pooled
// workspace per layout, so every row of a layout is an in-run pair with the
// default's, free of the page faults a fresh arena would add to expand.
func runFig6a(cfg *config) {
	a, b := fig6Input(cfg)
	af32, bf32 := float32s(a.Val), float32s(b.Val)
	widths := []int{64, 256, 512, 1024, 2048, 4096}
	threads := pickThreads(cfg, 0)
	for _, lay := range []core.Layout{core.LayoutSqueezed, core.LayoutWide, core.LayoutNarrow, core.LayoutPattern} {
		ws := core.NewWorkspace()
		run := func(width int) *core.Stats {
			opt := core.Options{Threads: threads, LocalBinBytes: width, Workspace: ws, ForceLayout: lay}
			var st *core.Stats
			var err error
			switch lay {
			case core.LayoutNarrow:
				opt.ForceLayout = core.LayoutAuto
				_, _, st, err = core.MultiplyNarrow(a, af32, b, bf32, opt)
			case core.LayoutPattern:
				opt.ForceLayout = core.LayoutAuto
				_, st, err = core.MultiplyPattern(a, b, opt)
			default:
				_, st, err = core.Multiply(a, b, opt)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "multiply failed: %v\n", err)
				os.Exit(1)
			}
			s := *st // st aliases ws
			return &s
		}
		best := make([]*core.Stats, len(widths))
		for r := -1; r < cfg.reps; r++ { // rep -1 grows the workspace
			for i, w := range widths {
				if st := run(w); r >= 0 && (best[i] == nil || st.Expand < best[i].Expand) {
					best[i] = st
				}
			}
		}
		tb := metrics.NewTable(fmt.Sprintf("Fig. 6a — expand bandwidth vs local bin width, %s layout", lay),
			"local bin (bytes)", "tuples/bin", "expand (ms)", "expand GB/s", "vs default", "total (ms)")
		def := best[slices.Index(widths, core.DefaultLocalBinBytes)].Expand
		for i, st := range best {
			tb.AddRow(widths[i], core.LocalBinTuples(widths[i], st.TupleBytes), ms(st.Expand), st.ExpandGBs(),
				fmt.Sprintf("%.2f", float64(st.Expand)/float64(def)), ms(st.Total))
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("paper: bandwidth saturates around 512 B/bin; the default is %d.\n", core.DefaultLocalBinBytes)
}

func float32s(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, x := range xs {
		out[i] = float32(x)
	}
	return out
}

// runFig6b sweeps the number of global bins and reports expand and sort
// bandwidth (Fig. 6b: more bins => in-cache sorting, but smaller flushes).
// The sort column reports both the memory-traffic model (b·flop) and the
// in-cache shuffle accounting (4·b·flop) the paper quotes when it reports
// sorting bandwidth "as high as 200 GB/s".
func runFig6b(cfg *config) {
	a, b := fig6Input(cfg)
	tb := metrics.NewTable("Fig. 6b — bandwidth vs number of bins",
		"nbins", "expand GB/s", "sort GB/s (mem)", "sort GB/s (shuffle)", "total (ms)")
	for _, nbins := range []int{1, 16, 64, 256, 1024, 2048, 4096, 16384} {
		// Fig. 6b reports sort-phase bandwidth; run the three-phase
		// pipeline so the phase exists separately.
		st := pbBest(cfg, a, b, core.Options{NBins: nbins, DisableFusion: true})
		shuffle := 4 * float64(st.SortBytes)
		sortShuffleGBs := 0.0
		if st.Sort > 0 {
			sortShuffleGBs = shuffle / st.Sort.Seconds() / 1e9
		}
		tb.AddRow(st.NBins, st.ExpandGBs(), st.SortGBs(), sortShuffleGBs, ms(st.Total))
	}
	tb.Render(os.Stdout)
	fmt.Println("\npaper: 1K-2K bins balance expand flush size against in-cache sorting.")
}
