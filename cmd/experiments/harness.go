package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pbspgemm"
)

// betaGBs returns the bandwidth for model outputs: the -beta override or a
// STREAM measurement (cached per process).
var measuredBeta float64

func betaGBs(cfg *config) float64 {
	if cfg.beta > 0 {
		return cfg.beta
	}
	if measuredBeta == 0 {
		n := 1 << 22 // quick: 32 MiB arrays
		if cfg.full {
			n = 1 << 25
		}
		measuredBeta = pbspgemm.MeasureBandwidth(n, cfg.threads)
	}
	return measuredBeta
}

// engine runs every bestRun: its pooled workspaces carry over between reps,
// algorithms and inputs, as they would in a serving process.
var engine, _ = pbspgemm.NewEngine() // no defaults: nothing to reject

// bestRun multiplies a*b cfg.reps times through engine under opts (at
// cfg.threads unless opts set WithThreads) and returns the fastest result
// (standard discipline for bandwidth-bound kernels).
func bestRun(cfg *config, a, b *pbspgemm.CSR, opts ...pbspgemm.Option) *pbspgemm.Result {
	opts = append([]pbspgemm.Option{pbspgemm.WithThreads(cfg.threads)}, opts...)
	var best *pbspgemm.Result
	for r := 0; r < cfg.reps; r++ {
		res, err := engine.Multiply(context.Background(), a, b, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multiply failed: %v\n", err)
			os.Exit(1)
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best
}

// assembleBytes is the paper's compress byte term, TupleBytes·nnz(C): the
// folded tuples the assemble pass reads back into the output CSR.
func assembleBytes(st *pbspgemm.PhaseStats) int64 { return st.TupleBytes * st.NNZC }

// assembleGBs is the assemble phase's sustained bandwidth over that term.
func assembleGBs(st *pbspgemm.PhaseStats) float64 {
	if st.Assemble <= 0 {
		return 0
	}
	return float64(assembleBytes(st)) / st.Assemble.Seconds() / 1e9
}

func pickThreads(cfg *config, override int) int {
	if override > 0 {
		return override
	}
	return cfg.threads
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// lineup runs a·b under each of the paper's four algorithms (PB, Heap, Hash,
// HashVec: pbspgemm.Algorithms) through bestRun, and returns PB's result and
// the row of their GFLOPS, in that order, after the cells of lead.
func lineup(cfg *config, a, b *pbspgemm.CSR, lead []any, opts ...pbspgemm.Option) (*pbspgemm.Result, []any) {
	var pb *pbspgemm.Result
	for _, alg := range pbspgemm.Algorithms() {
		res := bestRun(cfg, a, b, append(opts, pbspgemm.WithAlgorithm(alg))...)
		if alg == pbspgemm.PB {
			pb = res
		}
		lead = append(lead, res.GFLOPS())
	}
	return pb, lead
}

// machineProfile describes an evaluation machine for prediction re-scaling
// (Fig. 8 / Fig. 10 run on POWER9; we rescale Roofline predictions to its
// published STREAM bandwidth alongside host measurements — see DESIGN.md §4).
type machineProfile struct {
	name    string
	betaGBs float64
}

var (
	skylakeProfile = machineProfile{"Intel Skylake 8160 (1 socket, paper)", 50}
	power9Profile  = machineProfile{"IBM POWER9 (1 socket, paper)", 125} // half of 250 GB/s dual
)
