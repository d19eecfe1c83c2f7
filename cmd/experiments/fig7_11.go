package main

import (
	"fmt"
	"os"
	"sort"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/metrics"
)

// matrixKind selects the random-matrix family of a performance sweep.
type matrixKind int

const (
	kindER matrixKind = iota
	kindRMAT
)

func (k matrixKind) name() string {
	if k == kindER {
		return "ER"
	}
	return "RMAT"
}

func (k matrixKind) generate(scale, ef int, seed uint64) *pbspgemm.CSR {
	if k == kindER {
		return gen.ERMatrix(scale, ef, seed)
	}
	return gen.RMAT(scale, ef, gen.Graph500Params, seed)
}

// perfSweep is the Fig. 7a/9a experiment: GFLOPS of the four algorithms over
// (scale, edge factor) combinations, plus the Roofline prediction for PB at
// the host's beta. It also prints the Fig. 7b/9b companion: PB's per-phase
// sustained bandwidth.
func perfSweep(cfg *config, kind matrixKind, profile machineProfile) {
	scales := []int{13, 14, 15}
	efs := []int{4, 8, 16}
	if cfg.full {
		scales = []int{16, 18, 20}
	}
	beta := betaGBs(cfg)
	fmt.Printf("host beta = %.1f GB/s; model predictions also shown for %s (beta=%.0f GB/s)\n\n",
		beta, profile.name, profile.betaGBs)

	perf := metrics.NewTable(
		fmt.Sprintf("Fig. %sa — %s matrices: GFLOPS (best of %d)", figLabel(kind), kind.name(), cfg.reps),
		"scale", "ef", "cf", "PB", "Heap", "Hash", "HashVec", "model(PB,host)", "model(PB,paper)")
	bw := metrics.NewTable(
		fmt.Sprintf("Fig. %sb — PB-SpGEMM sustained bandwidth (GB/s)", figLabel(kind)),
		"scale", "ef", "expand", "fuse", "assemble", "overall")

	for _, scale := range scales {
		for _, ef := range efs {
			a := kind.generate(scale, ef, cfg.seed)
			b := kind.generate(scale, ef, cfg.seed+1)
			pbRes, row := lineup(cfg, a, b, []any{scale, ef, 0.0})
			row[2] = pbRes.CF
			hostModel := pbspgemm.PredictGFLOPS(beta, a.NNZ(), b.NNZ(), pbRes.Flops, pbRes.C.NNZ())
			paperModel := pbspgemm.PredictGFLOPS(profile.betaGBs, a.NNZ(), b.NNZ(), pbRes.Flops, pbRes.C.NNZ())
			row = append(row, hostModel, paperModel)
			perf.AddRow(row...)

			st := pbRes.PB
			bw.AddRow(scale, ef, st.ExpandGBs(), st.FuseGBs(), assembleGBs(st), st.OverallGBs())
		}
	}
	perf.Render(os.Stdout)
	fmt.Println()
	bw.Render(os.Stdout)
	if kind == kindER {
		fmt.Println("\npaper shape: PB stable and fastest at all edge factors; bandwidth near STREAM.")
	} else {
		fmt.Println("\npaper shape: PB still ahead, but skewed bins lower sustained bandwidth vs ER.")
	}
}

func figLabel(kind matrixKind) string {
	if kind == kindER {
		return "7"
	}
	return "9"
}

func runFig7(cfg *config) { perfSweep(cfg, kindER, skylakeProfile) }
func runFig9(cfg *config) { perfSweep(cfg, kindRMAT, skylakeProfile) }

// runFig8 and runFig10 are the POWER9 panels: the same experiment with model
// predictions rescaled to the POWER9's published bandwidth (the hardware
// substitution documented in DESIGN.md §4).
func runFig8(cfg *config) {
	fmt.Println("Fig. 8 substitutes the POWER9 testbed with this host + rescaled model (DESIGN.md §4).")
	perfSweep(cfg, kindER, power9Profile)
}

func runFig10(cfg *config) {
	fmt.Println("Fig. 10 substitutes the POWER9 testbed with this host + rescaled model (DESIGN.md §4).")
	perfSweep(cfg, kindRMAT, power9Profile)
}

// runFig11 squares the 12 Table VI matrices (surrogates or real files),
// sorted by ascending compression factor as the paper plots them.
func runFig11(cfg *config) {
	scaleDiv := int32(8)
	if cfg.full {
		scaleDiv = 1
	}
	type entry struct {
		name string
		cf   float64
		g    [4]float64 // PB, Heap, Hash, HashVec
		bw   float64    // PB overall GB/s
	}
	var entries []entry
	for _, s := range gen.Catalog() {
		m := loadOrGenerate(cfg, s, scaleDiv)
		pb, g := lineup(cfg, m, m, nil)
		e := entry{name: s.Name, cf: pb.CF, bw: pb.PB.OverallGBs()}
		for i := range e.g {
			e.g[i] = g[i].(float64)
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].cf < entries[j].cf })

	tb := metrics.NewTable(
		fmt.Sprintf("Fig. 11 — squaring real-matrix surrogates (1/%d scale), ascending cf", scaleDiv),
		"matrix", "cf", "PB", "Heap", "Hash", "HashVec", "PB GB/s", "PB wins")
	for _, e := range entries {
		best := true
		for i := 1; i < 4; i++ {
			if e.g[i] > e.g[0] {
				best = false
			}
		}
		win := "no"
		if best {
			win = "yes"
		}
		tb.AddRow(e.name, e.cf, e.g[0], e.g[1], e.g[2], e.g[3], e.bw, win)
	}
	tb.Render(os.Stdout)
	fmt.Println("\npaper shape: PB fastest for cf < 4 (left of the chart); hash takes over for cf > 4 (cant, hood).")
}
