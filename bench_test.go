package pbspgemm

// One testing.B benchmark per table/figure of the paper's evaluation, at
// laptop-scale defaults. Custom metrics mirror the paper's units: GFLOPS for
// performance figures and GB/s for bandwidth figures. cmd/experiments runs
// the full-scale sweeps with the same code paths.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/numa"
	"pbspgemm/internal/roofline"
	"pbspgemm/internal/stream"
)

// benchMultiply runs one product on fixed inputs through an Engine with
// opts as its defaults, reporting GFLOPS.
func benchMultiply(b *testing.B, a, m *CSR, opts ...Option) {
	b.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		b.Fatal(err)
	}
	var flops int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Multiply(context.Background(), a, m)
		if err != nil {
			b.Fatal(err)
		}
		flops = res.Flops
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(flops)/sec/1e9, "GFLOPS")
}

// --- Table V: STREAM --------------------------------------------------------

func BenchmarkTable5Stream(b *testing.B) {
	for _, k := range []stream.Kernel{stream.Copy, stream.Scale, stream.Add, stream.Triad} {
		b.Run(k.String(), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				res := stream.Run(stream.Options{N: 1 << 21, Reps: 1})
				best = res[int(k)].BestGBs
			}
			b.ReportMetric(best, "GB/s")
		})
	}
}

// --- Fig. 3: Roofline model --------------------------------------------------

func BenchmarkFig3Roofline(b *testing.B) {
	cfs := []float64{1, 2, 3, 4, 6, 8, 16}
	for i := 0; i < b.N; i++ {
		pts := roofline.FigureThree(50, 16, cfs)
		if len(pts) != len(cfs) {
			b.Fatal("model failure")
		}
	}
}

// --- Fig. 6a: local bin width sweep -----------------------------------------

func BenchmarkFig6aLocalBinWidth(b *testing.B) {
	a := gen.ERMatrix(14, 4, 1).ToCSC()
	m := gen.ERMatrix(14, 4, 2)
	for _, width := range []int{64, 256, 512, 2048} {
		b.Run(fmt.Sprintf("bytes%d", width), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = core.Multiply(a, m, core.Options{LocalBinBytes: width})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.ExpandGBs(), "expandGB/s")
		})
	}
}

// --- Fig. 6b: number of bins sweep ------------------------------------------

func BenchmarkFig6bNumBins(b *testing.B) {
	a := gen.ERMatrix(14, 4, 1).ToCSC()
	m := gen.ERMatrix(14, 4, 2)
	for _, nbins := range []int{1, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("nbins%d", nbins), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = core.Multiply(a, m, core.Options{NBins: nbins})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.FuseGBs(), "fuseGB/s")
			b.ReportMetric(st.ExpandGBs(), "expandGB/s")
		})
	}
}

// --- Fig. 7: ER performance (7a) and bandwidth (7b) -------------------------

func BenchmarkFig7ER(b *testing.B) {
	for _, ef := range []int{4, 8, 16} {
		a := gen.ERMatrix(13, ef, 1)
		m := gen.ERMatrix(13, ef, 2)
		for _, alg := range Algorithms() {
			b.Run(fmt.Sprintf("ef%d/%s", ef, alg), func(b *testing.B) {
				benchMultiply(b, a, m, WithAlgorithm(alg))
			})
		}
	}
}

func BenchmarkFig7bBandwidth(b *testing.B) {
	a := gen.ERMatrix(14, 8, 1).ToCSC()
	m := gen.ERMatrix(14, 8, 2)
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = core.Multiply(a, m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.ExpandGBs(), "expandGB/s")
	b.ReportMetric(st.FuseGBs(), "fuseGB/s")
}

// --- Fig. 8: ER on the POWER9 profile (model rescaling; see DESIGN.md §4) ---

func BenchmarkFig8Power9Model(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1)
	m := gen.ERMatrix(13, 8, 2)
	res, err := multiply(a, m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p := PredictGFLOPS(125, a.NNZ(), m.NNZ(), res.Flops, res.C.NNZ())
		if p <= 0 {
			b.Fatal("model failure")
		}
	}
	benchMultiply(b, a, m)
}

// --- Fig. 9: RMAT performance and bandwidth ----------------------------------

func BenchmarkFig9RMAT(b *testing.B) {
	for _, ef := range []int{4, 8, 16} {
		a := gen.RMAT(12, ef, gen.Graph500Params, 1)
		m := gen.RMAT(12, ef, gen.Graph500Params, 2)
		for _, alg := range Algorithms() {
			b.Run(fmt.Sprintf("ef%d/%s", ef, alg), func(b *testing.B) {
				benchMultiply(b, a, m, WithAlgorithm(alg))
			})
		}
	}
}

func BenchmarkFig9bBandwidth(b *testing.B) {
	a := gen.RMAT(13, 8, gen.Graph500Params, 1).ToCSC()
	m := gen.RMAT(13, 8, gen.Graph500Params, 2)
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = core.Multiply(a, m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.ExpandGBs(), "expandGB/s")
	b.ReportMetric(st.FuseGBs(), "fuseGB/s")
}

// --- Fig. 10: RMAT on POWER9 profile -----------------------------------------

func BenchmarkFig10Power9Model(b *testing.B) {
	a := gen.RMAT(12, 8, gen.Graph500Params, 1)
	m := gen.RMAT(12, 8, gen.Graph500Params, 2)
	benchMultiply(b, a, m)
}

// --- Fig. 11: squaring real-matrix surrogates, ascending cf ------------------

func BenchmarkFig11Real(b *testing.B) {
	for _, name := range []string{"mc2depi", "web-Google", "2cubes_sphere", "cant"} {
		var s gen.Surrogate
		for _, c := range gen.Catalog() {
			if c.Name == name {
				s = c
			}
		}
		m := s.Generate(32, 42)
		for _, alg := range []Algorithm{PB, Hash} {
			b.Run(fmt.Sprintf("%s/%s", name, alg), func(b *testing.B) {
				benchMultiply(b, m, m, WithAlgorithm(alg))
			})
		}
	}
}

// --- Table VI: matrix statistics ---------------------------------------------

func BenchmarkTable6Stats(b *testing.B) {
	m := gen.Catalog()[0].Generate(32, 42)
	for i := 0; i < b.N; i++ {
		st := gen.MeasureStats(m)
		if st.CF < 1 {
			b.Fatal("bad stats")
		}
	}
}

// --- Fig. 12: strong scaling --------------------------------------------------

func BenchmarkFig12Scaling(b *testing.B) {
	er := gen.ERMatrix(12, 16, 1)
	rmat := gen.RMAT(12, 16, gen.Graph500Params, 1)
	for _, in := range []struct {
		name string
		m    *CSR
	}{{"ER", er}, {"RMAT", rmat}} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/t%d", in.name, threads), func(b *testing.B) {
				benchMultiply(b, in.m, in.m, WithThreads(threads))
			})
		}
	}
}

// --- Fig. 13: phase breakdown --------------------------------------------------

func BenchmarkFig13Phases(b *testing.B) {
	a := gen.ERMatrix(13, 16, 1).ToCSC()
	m := gen.ERMatrix(13, 16, 2)
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = core.Multiply(a, m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.Expand.Seconds()*1e3, "expand-ms")
	b.ReportMetric(st.Fuse.Seconds()*1e3, "fuse-ms")
	b.ReportMetric(st.Assemble.Seconds()*1e3, "assemble-ms")
	b.ReportMetric(st.Symbolic.Seconds()*1e3, "symbolic-ms")
}

// --- Fig. 14 / Table VII: NUMA model ------------------------------------------

func BenchmarkFig14DualSocketModel(b *testing.B) {
	a := gen.ERMatrix(13, 16, 1)
	m := gen.ERMatrix(13, 16, 2)
	res, err := multiply(a, m)
	if err != nil {
		b.Fatal(err)
	}
	st := res.PB
	topo := numa.PaperSkylake
	fr := numa.DefaultRemoteFractions()
	phases := []numa.PhaseTraffic{
		{Name: "expand", Bytes: st.ExpandBytes, SingleTime: st.Expand, RemoteFrac: fr["expand"]},
		{Name: "fuse", Bytes: st.FusedBytes, SingleTime: st.Fuse, RemoteFrac: fr["sort"]},
		{Name: "assemble", Bytes: st.TupleBytes * st.NNZC, SingleTime: st.Assemble, RemoteFrac: fr["compress"]},
	}
	var dual time.Duration
	for i := 0; i < b.N; i++ {
		if dual = topo.PredictDual(phases); dual <= 0 {
			b.Fatal("model failure")
		}
	}
	b.ReportMetric(dual.Seconds()*1e3, "dual-ms")
}

func BenchmarkTable7Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ns := numa.MeasureLatencyNs(4<<20, 1)
		b.ReportMetric(ns, "ns/access")
	}
}

// --- Ablations: the design choices DESIGN.md calls out ------------------------

// BenchmarkAblationNoBlocking compares PB with its propagation blocking
// disabled (a single global bin = plain outer-product ESC) against the tuned
// default — the core design choice of the paper.
func BenchmarkAblationNoBlocking(b *testing.B) {
	a := gen.ERMatrix(14, 8, 1).ToCSC()
	m := gen.ERMatrix(14, 8, 2)
	for _, tc := range []struct {
		name  string
		nbins int
	}{{"blocked_auto", 0}, {"single_bin", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Multiply(a, m, core.Options{NBins: tc.nbins}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoLocalBins compares the paper's 512-byte local bins with
// one-tuple local bins (every tuple goes straight to its global bin through
// an atomic reservation — the cache-line-wasting behaviour Fig. 5 fixes).
func BenchmarkAblationNoLocalBins(b *testing.B) {
	a := gen.ERMatrix(14, 8, 1).ToCSC()
	m := gen.ERMatrix(14, 8, 2)
	for _, tc := range []struct {
		name  string
		bytes int
	}{{"local512B", 512}, {"local1tuple", 16}} {
		b.Run(tc.name, func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = core.Multiply(a, m, core.Options{LocalBinBytes: tc.bytes})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.ExpandGBs(), "expandGB/s")
		})
	}
}

// BenchmarkAblationSPA adds the SPA accumulator to the baseline lineup (the
// paper's Table I cites it but does not benchmark it).
func BenchmarkAblationSPA(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1)
	m := gen.ERMatrix(13, 8, 2)
	benchMultiply(b, a, m, WithAlgorithm(SPA))
}

// --- The oracle -----------------------------------------------------------------

// BenchmarkReference times Reference, the oracle every product is checked
// against, on an ER pair and a squared R-MAT, in nanoseconds per scalar product.
func BenchmarkReference(b *testing.B) {
	rmat := gen.RMAT(12, 16, gen.Graph500Params, 1)
	for _, tc := range []struct {
		name string
		a, m *CSR
	}{
		{"er_2^14_d8", gen.ERMatrix(14, 8, 1), gen.ERMatrix(14, 8, 2)},
		{"rmat_12_16_squared", rmat, rmat},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Reference(tc.a, tc.m)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(Flops(tc.a, tc.m)), "ns/product")
		})
	}
}

// --- Execution engine: workspace reuse and memory budget ----------------------

// BenchmarkWorkspaceSteadyState measures repeated multiplication through one
// shared Workspace — the serving scenario where the allocator and GC must
// stay off the hot path. With Threads=1 the engine performs zero
// steady-state allocations (the t1 rows report 0 allocs/op); parallel rows
// add only goroutine-spawn allocations.
func BenchmarkWorkspaceSteadyState(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1).ToCSC()
	m := gen.ERMatrix(13, 8, 2)
	for _, tc := range []struct {
		name    string
		threads int
		budget  int64
	}{
		{"t1", 1, 0},
		{"t1/budgeted", 1, 1 << 20},
		{"all-cores", 0, 0},
		{"all-cores/budgeted", 0, 1 << 20},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := core.NewWorkspace()
			opt := core.Options{Threads: tc.threads, Workspace: ws, MemoryBudgetBytes: tc.budget}
			// Warm-up call grows every pooled buffer to its high-water mark.
			if _, _, err := core.Multiply(a, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = core.Multiply(a, m, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(st.Flops)/sec/1e9, "GFLOPS")
		})
	}
}

// BenchmarkWorkspacePublicAPI contrasts a fresh Engine per call with one
// Engine reused (the fresh rows pay the tuple buffer, plan arrays and A's CSC
// conversion every call).
func BenchmarkWorkspacePublicAPI(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1)
	m := gen.ERMatrix(13, 8, 2)
	eng, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"fresh-buffers", func() (*Result, error) { return multiply(a, m) }},
		{"workspace", func() (*Result, error) { return eng.Multiply(context.Background(), a, m) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if _, err := tc.run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryBudget sweeps MemoryBudgetBytes from unlimited down to 1/32
// of the expansion, measuring what bin groups cost relative to the
// single-shot algorithm they make feasible on out-of-budget inputs.
func BenchmarkMemoryBudget(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1).ToCSC()
	m := gen.ERMatrix(13, 8, 2)
	_, st0, err := core.Multiply(a, m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	full := st0.Flops * 16
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"half", full / 2},
		{"eighth", full / 8},
		{"thirtysecond", full / 32},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := core.NewWorkspace()
			opt := core.Options{Workspace: ws, MemoryBudgetBytes: tc.budget}
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = core.Multiply(a, m, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.NGroups), "groups")
			b.ReportMetric(float64(ws.TupleCapBytes())/(1<<20), "tupleMiB")
		})
	}
}
