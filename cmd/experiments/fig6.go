package main

import (
	"fmt"
	"math/bits"
	"os"
	"slices"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
	"pbspgemm/internal/radix"
)

// fig6Input generates the parameter-selection workload: ER scale 20 in the
// paper, scale 16 at laptop scale, at edge factor ef (4 in the paper).
func fig6Input(cfg *config, ef int) (string, *matrix.CSC, *matrix.CSR) {
	scale := 16
	if cfg.full {
		scale = 20
	}
	a, b := gen.ERMatrix(scale, ef, cfg.seed), gen.ERMatrix(scale, ef, cfg.seed+1)
	return fmt.Sprintf("ER scale %d, edge factor %d (%s nnz each)", scale, ef, metrics.HumanCount(a.NNZ())), a.ToCSC(), b
}

// runFig6a sweeps the local-bin width and reports expand-phase time and
// sustained bandwidth (Fig. 6a: small bins under-utilize cache lines) on each
// of the three typed tuple layouts. The engine rounds every request to a
// multiple of 16 tuples of the run's layout and never goes below 16, so the
// sweep's low end is one line of keys per flush, not the paper's single tuple;
// the column shows the capacity run. Widths take turns within each rep on one pooled
// workspace per layout, so every row of a layout is an in-run pair with the
// default's, free of the page faults a fresh arena would add to expand.
func runFig6a(cfg *config) {
	name, a, b := fig6Input(cfg, 4)
	fmt.Printf("workload: %s\n\n", name)
	af32, bf32 := float32s(a.Val), float32s(b.Val)
	widths := []int{64, 256, 512, 1024, 2048, 4096}
	threads := pickThreads(cfg, 0)
	for _, lay := range []core.Layout{core.LayoutSqueezed, core.LayoutNarrow, core.LayoutPattern} {
		ws := core.NewWorkspace()
		run := func(width int) *core.Stats {
			opt := core.Options{Threads: threads, LocalBinBytes: width, Workspace: ws}
			var st *core.Stats
			var err error
			switch lay {
			case core.LayoutNarrow:
				_, _, st, err = core.MultiplyNarrow(a, af32, b, bf32, opt)
			case core.LayoutPattern:
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

// runFig6b sweeps the number of global bins on the shipped fused pipeline and
// reports expand and fuse (sort+fold) bandwidth (Fig. 6b: more bins =>
// in-cache sorting, but smaller flushes), each geometry's key width and the
// LSD passes a mean bin plans, on the paper's input, at edge factor 8
// (er_lowcf at laptop scale) and on R-MAT 2^13·d16 squared (rmat_skew, whose
// bins fold dense). The last row is the auto geometry, whose two-pass rule
// and dense cut (core.planBinGeometry) the sweep is the evidence for.
func runFig6b(cfg *config) {
	type input struct {
		name  string
		a     *matrix.CSC
		b     *matrix.CSR
		nbins []int
	}
	var inputs []input
	for _, ef := range []int{4, 8} {
		name, a, b := fig6Input(cfg, ef)
		inputs = append(inputs, input{name, a, b, []int{1, 16, 64, 256, 1024, 2048, 4096, 16384, 0}})
	}
	rm := gen.RMAT(13, 16, gen.Graph500Params, cfg.seed)
	inputs = append(inputs, input{fmt.Sprintf("R-MAT scale 13, edge factor 16, squared (%s nnz)", metrics.HumanCount(rm.NNZ())),
		rm.ToCSC(), rm, []int{64, 256, 512, 1024, 2048, 4096, 0}})
	for _, in := range inputs {
		fmt.Printf("workload: %s\n\n", in.name)
		a, b, nbins, ws := in.a, in.b, in.nbins, core.NewWorkspace()
		best := make([]core.Stats, len(nbins))
		for r := -1; r < cfg.reps; r++ { // rep -1 grows the workspace
			for i, nb := range nbins {
				_, st, err := core.Multiply(a, b, core.Options{NBins: nb, Threads: pickThreads(cfg, 0), Workspace: ws})
				if err != nil {
					fmt.Fprintf(os.Stderr, "multiply failed: %v\n", err)
					os.Exit(1)
				}
				if r >= 0 && (best[i].Total == 0 || st.Total < best[i].Total) {
					best[i] = *st // st aliases ws
				}
			}
		}
		tb := metrics.NewTable("Fig. 6b — bandwidth vs number of bins, fused",
			"nbins", "key bits", "LSD passes", "expand GB/s", "fuse GB/s", "expand (ms)", "fuse (ms)", "total (ms)")
		colBits := bits.Len32(uint32(b.NumCols - 1))
		for i, st := range best {
			keyBits := bits.Len32(uint32((a.NumRows+int32(st.NBins)-1)/int32(st.NBins)-1)) + colBits
			label := fmt.Sprint(st.NBins)
			if nbins[i] == 0 {
				label += " (auto)"
			}
			tb.AddRow(label, keyBits, radix.Passes(int(st.Flops)/st.NBins, keyBits), st.ExpandGBs(), st.FuseGBs(),
				ms(st.Expand), ms(st.Fuse), ms(st.Total))
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Println("paper: 1K-2K bins balance expand flush size against in-cache sorting; auto trims a key past two LSD passes",
		"and cuts a dense bin until its fold's working set fits L2.")
}
