// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each subcommand prints the same rows/series the
// paper reports; absolute numbers reflect this host, while the Roofline
// predictions printed alongside use the host's measured STREAM bandwidth so
// the paper's model-vs-measurement comparison is reproduced faithfully.
//
// Usage:
//
//	experiments <id> [flags]
//
// where <id> is one of: fig3, tables123, table5, table6, table7, fig6a,
// fig6b, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, tallskinny,
// ablations, planner, bench, all.
//
// Common flags:
//
//	-full        paper-scale workloads (default: laptop-scale)
//	-reps N      repetitions per measurement, best is kept (default 3)
//	-threads N   worker count (default GOMAXPROCS)
//	-seed N      generator seed (default 42)
//	-beta GB/s   override measured STREAM bandwidth in model outputs
//	-mtxdir DIR  load real SuiteSparse .mtx files for fig11/table6
//	-json PATH   write a machine-readable report (planner and bench)
//	-gate        bench: fail on ratio, phase-floor or steady-state alloc regressions;
//	             planner: fail when Auto exceeds 1.25× min(PB, SPA) on a sweep point
package main

import (
	"flag"
	"fmt"
	"os"
)

// config carries the common harness flags.
type config struct {
	full     bool
	reps     int
	threads  int
	seed     uint64
	beta     float64 // 0 = measure with STREAM
	mtxdir   string
	jsonOut  string // planner: write the machine-readable report here
	gate     bool   // bench: fail on a ratio, phase-floor or allocs regression
	baseline string // bench: prior -json report to diff ns/op against
}

type experiment struct {
	name string
	desc string
	run  func(cfg *config)
}

func experimentsList() []experiment {
	return []experiment{
		{"fig3", "Roofline bounds for SpGEMM (Fig. 3)", runFig3},
		{"tables123", "Algorithm classification and access patterns (Tables I-III)", runTables123},
		{"table5", "STREAM bandwidth (Table V)", runTable5},
		{"table6", "Real-matrix statistics, published vs surrogate (Table VI)", runTable6},
		{"table7", "NUMA bandwidth/latency matrix (Table VII)", runTable7},
		{"fig6a", "Expand bandwidth vs local bin width (Fig. 6a)", runFig6a},
		{"fig6b", "Expand/sort bandwidth vs number of bins (Fig. 6b)", runFig6b},
		{"fig7", "ER matrices: performance and bandwidth (Fig. 7a/7b)", runFig7},
		{"fig8", "ER matrices, POWER9 profile (Fig. 8)", runFig8},
		{"fig9", "RMAT matrices: performance and bandwidth (Fig. 9a/9b)", runFig9},
		{"fig10", "RMAT matrices, POWER9 profile (Fig. 10)", runFig10},
		{"fig11", "Squaring real matrices, ascending cf (Fig. 11)", runFig11},
		{"fig12", "Strong scaling, ER and RMAT scale 16 ef 16 (Fig. 12)", runFig12},
		{"fig13", "Per-phase scaling breakdown (Fig. 13)", runFig13},
		{"fig14", "Dual-socket performance via NUMA model (Fig. 14)", runFig14},
		{"tallskinny", "Square x tall-skinny multiply (deferred by the paper, Sec. IV-C)", runTallSkinny},
		{"ablations", "Design-choice ablations: blocking, local bins, cache budget, fusion", runAblations},
		{"planner", "Auto planner sweep: fitted-cost choice vs min(PB, SPA), regret gate, refit (-full)", runPlanner},
		{"bench", "Benchmark trajectory: GFLOPS, per-phase GB/s, allocs/op per regime (-json)", runBench},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	id := os.Args[1]
	fs := flag.NewFlagSet(id, flag.ExitOnError)
	cfg := &config{}
	fs.BoolVar(&cfg.full, "full", false, "run paper-scale workloads")
	fs.IntVar(&cfg.reps, "reps", 3, "repetitions per measurement (best kept)")
	fs.IntVar(&cfg.threads, "threads", 0, "worker threads (0 = GOMAXPROCS)")
	fs.Uint64Var(&cfg.seed, "seed", 42, "generator seed")
	fs.Float64Var(&cfg.beta, "beta", 0, "bandwidth GB/s for model output (0 = measure)")
	fs.StringVar(&cfg.mtxdir, "mtxdir", "", "directory with real SuiteSparse .mtx files")
	fs.StringVar(&cfg.jsonOut, "json", "", "write a machine-readable report to this path (planner, bench)")
	fs.BoolVar(&cfg.gate, "gate", false, "bench: exit nonzero if a ratio gate, a pct_of_stream floor or a pooled regime's 0 allocs/op fails; planner: if Auto's regret exceeds 1.25 on a sweep point")
	fs.StringVar(&cfg.baseline, "baseline", "", "bench: prior -json report to diff acceptance-regime ns/op against (informational)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	if id == "all" {
		for _, e := range experimentsList() {
			fmt.Printf("\n######## %s — %s ########\n", e.name, e.desc)
			e.run(cfg)
		}
		return
	}
	for _, e := range experimentsList() {
		if e.name == id {
			e.run(cfg)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", id)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments <id> [flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experimentsList() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
}
