package main

import (
	"fmt"
	"os"
	"path/filepath"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/numa"
	"pbspgemm/internal/par"
	"pbspgemm/internal/stream"
)

// runTable5 reproduces Table V: STREAM Copy/Scale/Add/Triad. The paper
// reports one and two sockets; this host exposes one memory domain, so we
// report full-core and half-core runs (half cores ≈ one socket on a
// dual-socket host) next to the paper's published rows.
func runTable5(cfg *config) {
	n := 1 << 22
	if cfg.full {
		n = 1 << 25
	}
	threads := par.DefaultThreads(cfg.threads)
	half := max(threads/2, 1)

	tb := metrics.NewTable("Table V — STREAM bandwidth (GB/s, best of reps)",
		"configuration", "Copy", "Scale", "Add", "Triad")
	addRow := func(name string, t int) {
		res := stream.Run(stream.Options{N: n, Threads: t, Reps: cfg.reps})
		tb.AddRow(name, res[0].BestGBs, res[1].BestGBs, res[2].BestGBs, res[3].BestGBs)
	}
	addRow(fmt.Sprintf("host, %d threads", threads), threads)
	if half != threads {
		addRow(fmt.Sprintf("host, %d threads", half), half)
	}
	tb.AddRow("paper Skylake 1 socket", 47.40, 46.85, 54.00, 57.04)
	tb.AddRow("paper Skylake 2 sockets", 97.73, 87.43, 107.00, 108.42)
	tb.Render(os.Stdout)
}

// runTable6 prints Table VI: the 12 matrices with published statistics next
// to the statistics our surrogates (or real .mtx files via -mtxdir) achieve.
func runTable6(cfg *config) {
	scaleDiv := int32(8)
	if cfg.full {
		scaleDiv = 1
	}
	fmt.Printf("surrogate scale divisor: %d (use -full for Table VI sizes)\n", scaleDiv)
	tb := metrics.NewTable("Table VI — real matrices: published vs generated",
		"graph", "n", "nnz", "d", "flops", "nnz(C)", "cf", "| pub d", "pub cf")
	for _, s := range gen.Catalog() {
		m := loadOrGenerate(cfg, s, scaleDiv)
		st := gen.MeasureStats(m)
		tb.AddRow(s.Name, metrics.HumanCount(int64(st.N)), metrics.HumanCount(st.NNZ),
			st.D, metrics.HumanCount(st.Flops), metrics.HumanCount(st.NNZC), st.CF,
			fmt.Sprintf("| %.2f", s.Degree), s.PubCF)
	}
	tb.Render(os.Stdout)
}

// loadOrGenerate returns the real matrix from -mtxdir when present, else the
// surrogate.
func loadOrGenerate(cfg *config, s gen.Surrogate, scaleDiv int32) *matrix.CSR {
	if cfg.mtxdir != "" {
		path := filepath.Join(cfg.mtxdir, s.Name+".mtx")
		if m, err := mmio.ReadFile(path); err == nil {
			fmt.Printf("loaded real matrix %s\n", path)
			return m
		}
	}
	return s.Generate(scaleDiv, cfg.seed)
}

// runTable7 prints Table VII: the NUMA bandwidth/latency matrix. The remote
// cells come from the paper's published topology (simulated — Go has no NUMA
// placement); the local cell is additionally measured on this host with a
// pointer-chase (latency) and STREAM copy (bandwidth).
func runTable7(cfg *config) {
	topo := numa.PaperSkylake
	tv := topo.TableVII()
	tb := metrics.NewTable("Table VII — NUMA bandwidth and latency (paper topology)",
		"", "socket 0", "socket 1")
	for i := 0; i < 2; i++ {
		tb.AddRow(fmt.Sprintf("socket %d", i),
			fmt.Sprintf("%.2f GB/s, %.1f ns", tv[i][0].GBs, tv[i][0].Ns),
			fmt.Sprintf("%.2f GB/s, %.1f ns", tv[i][1].GBs, tv[i][1].Ns))
	}
	tb.Render(os.Stdout)

	bytes := int64(32 << 20)
	if cfg.full {
		bytes = 256 << 20
	}
	latency := numa.MeasureLatencyNs(bytes, cfg.seed)
	beta := betaGBs(cfg)
	fmt.Printf("\nhost local measurements: %.2f GB/s (STREAM triad), %.1f ns (pointer chase, %d MiB)\n",
		beta, latency, bytes>>20)
	fmt.Printf("remote cells are simulated from the paper's topology (see DESIGN.md §4)\n")
}
