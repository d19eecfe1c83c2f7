// Quickstart: multiply two random sparse matrices with PB-SpGEMM and compare
// against the hash baseline and the Roofline prediction — the 60-second tour
// of the library's public API.
package main

import (
	"context"
	"fmt"
	"log"

	"pbspgemm"
)

func main() {
	// Two 2^14 x 2^14 Erdős–Rényi matrices with 8 nonzeros per column: the
	// cf≈1 regime where the paper says PB-SpGEMM shines.
	a := pbspgemm.NewER(1<<14, 8, 1)
	b := pbspgemm.NewER(1<<14, 8, 2)
	fmt.Printf("A, B: %dx%d with %d nonzeros each\n", a.NumRows, a.NumCols, a.NNZ())

	// An Engine is the library's front door: safe for concurrent callers,
	// cancellable via context, pooling workspaces across calls.
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// PB-SpGEMM with the engine's defaults (auto bins, 1 KiB local bins).
	res, err := eng.Multiply(ctx, a, b)
	if err != nil {
		log.Fatal(err)
	}
	st := res.PB
	fmt.Printf("\nPB-SpGEMM: %d flops, nnz(C)=%d, cf=%.2f\n", res.Flops, res.C.NNZ(), res.CF)
	fmt.Printf("  total %v  =>  %.3f GFLOPS\n", res.Elapsed, res.GFLOPS())
	fmt.Printf("  expand  %8v  %6.2f GB/s\n", st.Expand, st.ExpandGBs())
	// The default pipeline fuses sort, compress and assembly counting into
	// one pass per bin (see the README's "fused pipeline" section).
	fmt.Printf("  fuse    %8v  %6.2f GB/s (%d bins)\n", st.Fuse, st.FuseGBs(), st.NBins)
	fmt.Printf("  assemble%8v\n", st.Assemble)

	// The same multiplication with the strongest column baseline, selected
	// per call with a functional option.
	hash, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.Hash))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHashSpGEMM: %v  =>  %.3f GFLOPS\n", hash.Elapsed, hash.GFLOPS())

	// Both algorithms must agree (up to float summation order).
	if !pbspgemm.EqualWithin(res.C, hash.C, 1e-9) {
		log.Fatal("algorithms disagree!")
	}
	fmt.Println("results agree ✓")

	// What does the Roofline model say this machine should reach?
	beta := pbspgemm.MeasureBandwidth(1<<22, 0)
	pred := pbspgemm.PredictGFLOPS(beta, a.NNZ(), b.NNZ(), res.Flops, res.C.NNZ())
	fmt.Printf("\nRoofline: beta=%.1f GB/s => predicted PB performance %.3f GFLOPS (measured %.3f)\n",
		beta, pred, res.GFLOPS())
}
