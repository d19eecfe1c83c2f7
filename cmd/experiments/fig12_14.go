package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/metrics"
	"pbspgemm/internal/numa"
)

// scalingInputs generates the Fig. 12/13 workloads: ER and RMAT, scale 16,
// edge factor 16 (scale 13 at laptop scale).
func scalingInputs(cfg *config) (er, rmat *pbspgemm.CSR, scale int) {
	scale = 13
	if cfg.full {
		scale = 16
	}
	er = gen.ERMatrix(scale, 16, cfg.seed)
	rmat = gen.RMAT(scale, 16, gen.Graph500Params, cfg.seed)
	return er, rmat, scale
}

func threadSteps() []int {
	maxT := runtime.GOMAXPROCS(0)
	steps := []int{1}
	for t := 2; t < maxT; t *= 2 {
		steps = append(steps, t)
	}
	if steps[len(steps)-1] != maxT {
		steps = append(steps, maxT)
	}
	return steps
}

// runFig12 is the strong-scaling experiment: GFLOPS of all four algorithms
// from 1 thread to all cores, ER and RMAT.
func runFig12(cfg *config) {
	er, rmat, scale := scalingInputs(cfg)
	for _, in := range []struct {
		name string
		m    *pbspgemm.CSR
	}{{"ER", er}, {"RMAT", rmat}} {
		tb := metrics.NewTable(
			fmt.Sprintf("Fig. 12 — strong scaling, %s scale %d ef 16 (GFLOPS)", in.name, scale),
			"threads", "PB", "Heap", "Hash", "HashVec", "PB speedup")
		var pb1 float64
		for _, t := range threadSteps() {
			pb, row := lineup(cfg, in.m, in.m, []any{t}, pbspgemm.WithThreads(t))
			pbG := pb.GFLOPS()
			if pb1 == 0 {
				pb1 = pbG
			}
			row = append(row, fmt.Sprintf("%.1fx", pbG/pb1))
			tb.AddRow(row...)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Println("paper shape: ~16x PB speedup on 24 cores for ER, ~10x for RMAT (load imbalance).")
}

// runFig13 is the per-phase scaling breakdown: PB-SpGEMM phase times vs
// thread count on the same inputs as Fig. 12.
func runFig13(cfg *config) {
	er, rmat, scale := scalingInputs(cfg)
	for _, in := range []struct {
		name string
		m    *pbspgemm.CSR
	}{{"ER", er}, {"RMAT", rmat}} {
		tb := metrics.NewTable(
			fmt.Sprintf("Fig. 13 — PB phase breakdown, %s scale %d ef 16 (ms)", in.name, scale),
			"threads", "symbolic", "expand", "fuse", "assemble", "total")
		for _, t := range threadSteps() {
			st := bestRun(cfg, in.m, in.m, pbspgemm.WithAlgorithm(pbspgemm.PB), pbspgemm.WithThreads(t)).PB
			tb.AddRow(t, ms(st.Symbolic), ms(st.Expand), ms(st.Fuse), ms(st.Assemble), ms(st.Total))
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Println("paper shape: expand and sort dominate and scale; RMAT sort scales worse (skewed bins).")
	fmt.Println("fuse is the paper's sort and compress in one pass per bin.")
}

// runFig14 is the dual-socket experiment. Real NUMA placement is not
// reachable from Go, so the second socket is simulated: measured
// single-socket PB phase traffic is pushed through the paper's Table VII
// topology (DESIGN.md §4), while column algorithms get the near-2x scaling
// the paper observes for them.
func runFig14(cfg *config) {
	fmt.Println("Fig. 14 simulates the second socket with the NUMA model of internal/numa (DESIGN.md §4).")
	topo := numa.PaperSkylake
	fr := numa.DefaultRemoteFractions()

	scales := []int{13, 14}
	if cfg.full {
		scales = []int{16, 18, 20}
	}
	for _, kind := range []matrixKind{kindER, kindRMAT} {
		tb := metrics.NewTable(
			fmt.Sprintf("Fig. 14 — dual-socket model, %s ef 16 (GFLOPS)", kind.name()),
			"scale", "PB 1-socket", "PB 2-socket (model)", "PB-part 2-socket (model)",
			"Heap 2-socket (model)", "Hash 2-socket (model)", "PB still wins")
		for _, scale := range scales {
			a := kind.generate(scale, 16, cfg.seed)
			b := kind.generate(scale, 16, cfg.seed+1)
			// The NUMA model pushes the paper's per-phase traffic through
			// the Table VII topology: the fuse phase carries the sort's
			// read-back at the sort's remote fraction, assemble the
			// compress write at the compress fraction.
			pb := bestRun(cfg, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
			st := pb.PB

			phases := []numa.PhaseTraffic{
				{Name: "symbolic", Bytes: 0, SingleTime: st.Symbolic, RemoteFrac: fr["symbolic"]},
				{Name: "expand", Bytes: st.ExpandBytes, SingleTime: st.Expand, RemoteFrac: fr["expand"]},
				{Name: "fuse", Bytes: st.FusedBytes, SingleTime: st.Fuse, RemoteFrac: fr["sort"]},
				{Name: "assemble", Bytes: assembleBytes(st), SingleTime: st.Assemble, RemoteFrac: fr["compress"]},
			}
			dualTime := topo.PredictDual(phases)
			pbDual := float64(st.Flops) / dualTime.Seconds() / 1e9

			// Partitioned PB (Section V-D mitigation): each of the two row
			// bands runs socket-local (remote fraction ~0) but B is read
			// twice. Model: all phases local at measured efficiency, with
			// the extra B read added to expand traffic.
			partPhases := []numa.PhaseTraffic{
				{Name: "symbolic", Bytes: 0, SingleTime: st.Symbolic, RemoteFrac: 0},
				{Name: "expand", Bytes: st.ExpandBytes + 16*b.NNZ(), SingleTime: st.Expand, RemoteFrac: 0},
				{Name: "fuse", Bytes: st.FusedBytes, SingleTime: st.Fuse, RemoteFrac: 0},
				{Name: "assemble", Bytes: assembleBytes(st), SingleTime: st.Assemble, RemoteFrac: 0},
			}
			// Scale the expand single time by the traffic ratio so the
			// efficiency term reflects the extra read.
			partPhases[1].SingleTime = time.Duration(float64(st.Expand) *
				float64(partPhases[1].Bytes) / float64(st.ExpandBytes))
			partDualTime := topo.PredictDual(partPhases)
			pbPartDual := float64(st.Flops) / partDualTime.Seconds() / 1e9

			heap := bestRun(cfg, a, b, pbspgemm.WithAlgorithm(pbspgemm.Heap))
			hash := bestRun(cfg, a, b, pbspgemm.WithAlgorithm(pbspgemm.Hash))
			colSpeedup := topo.ColumnDualSpeedup()
			heapDual := heap.GFLOPS() * colSpeedup
			hashDual := hash.GFLOPS() * colSpeedup

			wins := "no"
			if pbDual > heapDual && pbDual > hashDual {
				wins = "yes"
			}
			tb.AddRow(scale, pb.GFLOPS(), pbDual, pbPartDual, heapDual, hashDual, wins)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Println("paper shape: PB keeps its lead for ER but loses it for RMAT on two sockets,")
	fmt.Println("because sort/compress run at cross-socket bandwidth while columns stay cached.")
}
