package main

import (
	"fmt"
	"os"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
)

// runTallSkinny is the experiment the paper defers for space ("multiplying a
// square matrix by a tall-and-skinny matrix as needed in betweenness
// centrality algorithms", Section IV-C): A (n×n, ER) times F (n×k dense-ish
// frontier matrix with f nonzeros per column), sweeping the skinny width k.
// The interesting shape: PB's bins follow rows of A, so a narrow B shrinks
// flop and bins while the A-streaming advantage persists.
func runTallSkinny(cfg *config) {
	scale := 14
	if cfg.full {
		scale = 18
	}
	n := int32(1) << scale
	a := gen.ER(n, 8, cfg.seed)
	fmt.Printf("A: ER scale %d, ef 8 (%s nnz); F: n×k with 32 nnz per column\n\n",
		scale, metrics.HumanCount(a.NNZ()))

	tb := metrics.NewTable("Extra — tall-skinny multiply A(n×n)·F(n×k), GFLOPS",
		"k", "cf", "PB", "Heap", "Hash", "HashVec")
	for _, k := range []int32{4, 16, 64, 256, 1024} {
		f := tallSkinny(n, k, 32, cfg.seed+uint64(k))
		pb, row := lineup(cfg, a, f, []any{int(k), 0.0})
		row[1] = pb.CF
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	fmt.Println("\nthe paper defers this workload; it is the betweenness-centrality shape [1].")
}

// tallSkinny generates an n×k matrix with f nonzeros per column (a BFS
// frontier batch).
func tallSkinny(n, k int32, f int, seed uint64) *pbspgemm.CSR {
	r := gen.NewRNG(seed)
	coo := &matrix.COO{NumRows: n, NumCols: k}
	seen := map[int32]struct{}{}
	for j := int32(0); j < k; j++ {
		clear(seen)
		for len(seen) < f {
			i := r.Intn(n)
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, 1)
		}
	}
	return coo.ToCSR()
}

// runAblations quantifies the design choices of PB-SpGEMM:
// propagation blocking itself (nbins=1 == unblocked outer ESC), local bins
// (1-tuple bins == direct global writes) and the cache budget that sizes bins.
// Section V-D's partitioned PB is a memory budget's bin groups: an in-process
// shard product is one budgeted PB call, and configured backends get row bands
// of A, each one budgeted PB call over the whole B.
func runAblations(cfg *config) {
	scale := 14
	if cfg.full {
		scale = 18
	}
	a := gen.ERMatrix(scale, 8, cfg.seed)
	b := gen.ERMatrix(scale, 8, cfg.seed+1)
	fmt.Printf("workload: ER scale %d, ef 8\n\n", scale)

	tb := metrics.NewTable("Ablations (best of reps)", "variant", "time (ms)", "GFLOPS", "expand GB/s", "fuse GB/s")
	addPB := func(name string, res *pbspgemm.Result) {
		st := res.PB
		tb.AddRow(name, ms(res.Elapsed), res.GFLOPS(), st.ExpandGBs(), st.FuseGBs())
	}
	addPB("PB (default)", bestRun(cfg, a, b))
	addPB("no blocking (nbins=1)", bestRun(cfg, a, b, pbspgemm.WithNBins(1)))
	addPB("smallest local bins (16 tuples, one line of keys)", bestRun(cfg, a, b, pbspgemm.WithLocalBinBytes(16)))
	addPB("tiny cache budget (64 KiB)", bestRun(cfg, a, b, pbspgemm.WithL2CacheBytes(64<<10)))
	tb.Render(os.Stdout)
}
