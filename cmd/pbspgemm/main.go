// Command pbspgemm multiplies two sparse matrices from the command line and
// reports the paper's metrics: per-phase times, GFLOPS, sustained bandwidth
// and the Roofline prediction.
//
// Inputs are either generated (-gen er|rmat -scale S -ef E) or loaded from
// Matrix Market files (-a file.mtx -b file.mtx; -b defaults to -a, i.e.
// squaring). Example:
//
//	pbspgemm -gen er -scale 18 -ef 8 -algo pb
//	pbspgemm -a web.mtx -algo hash -threads 8
//	pbspgemm -gen er -scale 10 -ef 128 -algo auto   (prints the planner's Plan)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pbspgemm"
	"pbspgemm/internal/metrics"
)

func main() {
	var (
		genKind = flag.String("gen", "", "generate inputs: er or rmat (overrides -a/-b)")
		scale   = flag.Int("scale", 14, "generated matrix scale (2^scale rows)")
		ef      = flag.Int("ef", 8, "generated edge factor (nnz per column)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		aPath   = flag.String("a", "", "Matrix Market file for A")
		bPath   = flag.String("b", "", "Matrix Market file for B (default: A, squaring)")
		algoStr = flag.String("algo", "pb", "algorithm: pb, heap, hash, hashvec, spa, or auto (the planner picks pb or spa and its Plan is printed)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		nbins   = flag.Int("nbins", 0, "PB global bins (0 = auto; raised until the packed key fits 32 bits, up to 4096)")
		lbin    = flag.Int("localbin", 0, "PB local bin bytes (0 = 1024)")
		budget  = flag.String("budget", "0", "PB expanded-tuple memory budget, e.g. 512M or 2G (0 = unlimited)")
		reps    = flag.Int("reps", 1, "repetitions, best kept (reusing one workspace)")
		verify  = flag.Bool("verify", false, "check the result against the reference algorithm")
		out     = flag.String("o", "", "write the product to a Matrix Market file")
	)
	flag.Parse()

	alg, err := pbspgemm.ParseAlgorithm(*algoStr)
	if err != nil {
		fatal(err)
	}

	var a, b *pbspgemm.CSR
	switch *genKind {
	case "er":
		a = pbspgemm.NewER(1<<*scale, *ef, *seed)
		b = pbspgemm.NewER(1<<*scale, *ef, *seed+1)
	case "rmat":
		a = pbspgemm.NewRMAT(*scale, *ef, *seed)
		b = pbspgemm.NewRMAT(*scale, *ef, *seed+1)
	case "":
		if *aPath == "" {
			fatal(fmt.Errorf("either -gen or -a is required"))
		}
		if a, err = pbspgemm.ReadMatrixMarketFile(*aPath); err != nil {
			fatal(err)
		}
		if *bPath == "" || *bPath == *aPath {
			b = a
		} else if b, err = pbspgemm.ReadMatrixMarketFile(*bPath); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown generator %q", *genKind))
	}

	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		fatal(err)
	}
	// The engine pools workspaces internally: the first repetition warms one
	// up and the remaining reps reuse it, with results cloned out so they
	// survive the next call.
	eng, err := pbspgemm.NewEngine(
		pbspgemm.WithAlgorithm(alg),
		pbspgemm.WithThreads(*threads),
		pbspgemm.WithNBins(*nbins),
		pbspgemm.WithLocalBinBytes(*lbin),
		pbspgemm.WithMemoryBudget(budgetBytes),
	)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var best *pbspgemm.Result
	for r := 0; r < *reps; r++ {
		res, err := eng.Multiply(ctx, a, b)
		if err != nil {
			fatal(err)
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}

	fmt.Printf("A: %dx%d, %s nnz   B: %dx%d, %s nnz\n",
		a.NumRows, a.NumCols, metrics.HumanCount(a.NNZ()),
		b.NumRows, b.NumCols, metrics.HumanCount(b.NNZ()))
	if p := best.Plan; p != nil {
		start := time.Now()
		if _, err := eng.Plan(ctx, a, b); err != nil {
			fatal(err)
		}
		how := "counted"
		if p.Sampled {
			how = "sampled"
		}
		fmt.Printf("plan: picked %s; predicted PB %.2f ms, SPA %.2f ms (on the fitting machine); nnz(C) %s %d, actual %d; planned in %v\n",
			p.Chosen, float64(p.Flops)/p.PredictedOuterGFLOPS/1e6, float64(p.Flops)/p.PredictedColumnGFLOPS/1e6,
			how, p.EstNNZC, best.C.NNZ(), time.Since(start))
	}
	fmt.Printf("%s: C has %s nnz, flop=%s, cf=%.2f\n",
		best.Algorithm, metrics.HumanCount(best.C.NNZ()), metrics.HumanCount(best.Flops), best.CF)
	fmt.Printf("time %v  =>  %.3f GFLOPS\n", best.Elapsed, best.GFLOPS())
	if st := best.PB; st != nil {
		fmt.Printf("phases: symbolic %v, expand %v (%.1f GB/s), fuse %v (%.1f GB/s), assemble %v\n",
			st.Symbolic, st.Expand, st.ExpandGBs(), st.Fuse, st.FuseGBs(), st.Assemble)
		if st.NGroups > 1 {
			fmt.Printf("bins: %d  groups: %d (budget %s)\n", st.NBins, st.NGroups, *budget)
		} else {
			fmt.Printf("bins: %d\n", st.NBins)
		}
	}
	if st := best.Baseline; st != nil {
		fmt.Printf("phases: symbolic %v, numeric %v\n", st.Symbolic, st.Numeric)
	}
	if *reps > 1 {
		em := eng.Metrics()
		fmt.Printf("engine: %d calls, %s total flops, %.2f GB modeled traffic, busy %v\n",
			em.Calls, metrics.HumanCount(em.Flops), float64(em.BytesMoved)/1e9, em.Busy)
	}

	if *verify {
		want := pbspgemm.Reference(a, b)
		if pbspgemm.EqualWithin(want, best.C, 1e-9) {
			fmt.Println("verify: OK (matches reference)")
		} else {
			fatal(fmt.Errorf("verify: result differs from reference"))
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pbspgemm.WriteMatrixMarket(f, best.C); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// parseBytes parses a byte count with an optional K/M/G/T suffix (powers of
// 1024), e.g. "512M", "2G", "65536".
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty byte count")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	case 't', 'T':
		mult = 1 << 40
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte count %q", s)
	}
	return n * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbspgemm:", err)
	os.Exit(1)
}
