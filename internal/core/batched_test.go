package core

import (
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/numa"
	"pbspgemm/internal/simd"
)

// The batched kernels (internal/simd) are an implementation of the same
// algorithm, not a variant: chunked expand flushes at exactly the per-element
// loop's boundaries and the batched radix passes run the identical digit
// plans, so every layout must produce bit-identical output with
// DisableBatch on and off. These tests are the per-kernel equivalence
// matrix the scalar oracle pins.

// batchedCase is one (input, layout-runner) cell of the matrix. run executes
// the product under opt and returns a comparable result: the CSR plus, for
// the narrow layout, its value plane folded back in.
type batchedCase struct {
	name string
	run  func(t *testing.T, opt Options) *matrix.CSR
}

func batchedCases(t *testing.T) []batchedCase {
	a := intValued(gen.ER(768, 8, 31))
	b := intValued(gen.ER(768, 8, 32))
	askew := intValued(gen.RMAT(9, 8, gen.Graph500Params, 33))
	bskew := intValued(gen.RMAT(9, 8, gen.Graph500Params, 34))
	acsc, askewcsc := a.ToCSC(), askew.ToCSC()
	af32, bf32 := narrowPlanes[float32](acsc, b)

	wide := func(acsc *matrix.CSC, b *matrix.CSR) func(*testing.T, Options) *matrix.CSR {
		return func(t *testing.T, opt Options) *matrix.CSR {
			opt.ForceLayout = LayoutWide
			c, _, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	squeezed := func(acsc *matrix.CSC, b *matrix.CSR) func(*testing.T, Options) *matrix.CSR {
		return func(t *testing.T, opt Options) *matrix.CSR {
			opt.ForceLayout = LayoutSqueezed
			c, st, err := Multiply(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Layout != LayoutSqueezed {
				t.Fatalf("squeezed run used layout %v", st.Layout)
			}
			return c
		}
	}
	return []batchedCase{
		{"wide/ER", wide(acsc, b)},
		{"wide/RMAT", wide(askewcsc, bskew)},
		{"squeezed/ER", squeezed(acsc, b)},
		{"squeezed/RMAT", squeezed(askewcsc, bskew)},
		{"pattern/ER", func(t *testing.T, opt Options) *matrix.CSR {
			c, _, err := MultiplyPattern(acsc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"narrow-f32/ER", func(t *testing.T, opt Options) *matrix.CSR {
			c, vals, _, err := MultiplyNarrow(acsc, af32, b, bf32, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Fold the value plane back into the CSR so matrix.Equal compares
			// values too (exact: integer-valued inputs).
			out := c.Clone()
			out.Val = make([]float64, len(vals))
			for i, v := range vals {
				out.Val[i] = float64(v)
			}
			return out
		}},
	}
}

// TestBatchedMatchesScalarMatrix: batched vs scalar × four layouts ×
// Threads∈{1,2,8} × budgeted/unbudgeted, all held to exact bit-identity
// (inputs are integer-valued, so value folds are exact in every width).
func TestBatchedMatchesScalarMatrix(t *testing.T) {
	for _, tc := range batchedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, budget := range []int64{0, 64 << 10} {
				for _, threads := range []int{1, 2, 8} {
					opt := Options{Threads: threads, MemoryBudgetBytes: budget}
					opt.DisableBatch = true
					want := tc.run(t, opt)
					opt.DisableBatch = false
					got := tc.run(t, opt)
					if want.Val == nil {
						if !csrSameStructure(want, got) {
							t.Fatalf("threads=%d budget=%d: batched structure differs from scalar", threads, budget)
						}
					} else if !matrix.Equal(want, got, 0) {
						t.Fatalf("threads=%d budget=%d: batched differs from scalar", threads, budget)
					}
				}
			}
		})
	}
}

// TestNTFlushBitIdentical forces the non-temporal flush path (normally gated
// on the panel arena outgrowing the LLC) onto the small test inputs and
// holds every layout to exact bit-identity against one scalar oracle per
// case: one thread, single-shot, default local bins, DisableBatch (the
// scalar path never uses NT). The matrix crosses what moves the flush
// schedule — thread count (where each worker's reserved ranges start),
// LocalBinBytes (64 is a sub-line request that runs at 16 tuples) and
// budgeted multi-panel runs (ranges re-planned per panel). Inputs are
// integer-valued, so budgeted folds are exact too.
func TestNTFlushBitIdentical(t *testing.T) {
	old := ntMinArenaBytes
	ntMinArenaBytes = 0
	defer func() { ntMinArenaBytes = old }()
	for _, tc := range batchedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(t, Options{Threads: 1, DisableBatch: true})
			for _, threads := range []int{1, 2, 3, 4, 8} {
				for _, lbb := range []int{64, 512, 4096} {
					for _, budget := range []int64{0, 64 << 10} {
						got := tc.run(t, Options{Threads: threads, LocalBinBytes: lbb, MemoryBudgetBytes: budget})
						if want.Val == nil {
							if !csrSameStructure(want, got) {
								t.Fatalf("threads=%d localBin=%d budget=%d: NT-flush structure differs from scalar",
									threads, lbb, budget)
							}
						} else if !matrix.Equal(want, got, 0) {
							t.Fatalf("threads=%d localBin=%d budget=%d: NT-flush result differs from scalar",
								threads, lbb, budget)
						}
					}
				}
			}
		})
	}
}

// TestStatsKernelReported: Stats.Kernel names the dispatched kernel set —
// simd.Level() by default, "scalar" under DisableBatch.
func TestStatsKernelReported(t *testing.T) {
	a := gen.ER(256, 4, 41)
	acsc := a.ToCSC()
	_, st, err := Multiply(acsc, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDefault := "scalar"
	if simd.Enabled {
		wantDefault = simd.Level()
	}
	if st.Kernel != wantDefault {
		t.Fatalf("Kernel = %q, want %q", st.Kernel, wantDefault)
	}
	_, st, err = Multiply(acsc, a, Options{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernel != "scalar" {
		t.Fatalf("Kernel under DisableBatch = %q, want scalar", st.Kernel)
	}
}

// fakeTwoNode is an injected two-node machine whose CPU ids are far beyond
// any real host's: PinThread is best-effort, so pinning no-ops while every
// other NUMA mechanism — worker→node assignment, first-touch pass,
// near-first victim order, steal counters — runs for real.
func fakeTwoNode() *numa.Machine {
	return &numa.Machine{
		Nodes:  [][]int{{100000, 100001}, {100002, 100003}},
		Source: "test",
	}
}

// TestNUMAInjectedBitIdentical: with an injected two-node topology the
// NUMA-aware schedule (pinning hooks, first-touch, near-first stealing) must
// be invisible in the output — bit-identical to the default run — while
// Stats reports the node count and conserving steal counters.
func TestNUMAInjectedBitIdentical(t *testing.T) {
	a := intValued(gen.RMAT(10, 8, gen.Graph500Params, 51))
	b := intValued(gen.RMAT(10, 8, gen.Graph500Params, 52))
	acsc := a.ToCSC()
	for _, budget := range []int64{0, 256 << 10} {
		want, stPlain, err := Multiply(acsc, b, Options{Threads: 8, MemoryBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if stPlain.NUMANodes != 1 {
			// The host either has one node or discovery fell back: either way
			// the default run must report 1 unless the machine is really
			// multi-node. Multi-node hosts legitimately report more.
			if m := numa.Default(); m.Source != "sysfs" || m.NNodes() != stPlain.NUMANodes {
				t.Fatalf("default NUMANodes = %d without a multi-node sysfs machine", stPlain.NUMANodes)
			}
		}
		got, st, err := Multiply(acsc, b, Options{Threads: 8, MemoryBudgetBytes: budget, NUMA: fakeTwoNode()})
		if err != nil {
			t.Fatal(err)
		}
		if st.NUMANodes != 2 {
			t.Fatalf("budget=%d: NUMANodes = %d, want 2", budget, st.NUMANodes)
		}
		if !matrix.Equal(want, got, 0) {
			t.Fatalf("budget=%d: NUMA-aware result differs from default", budget)
		}
		if st.SortOwned+st.SortStolen <= 0 {
			t.Fatalf("budget=%d: no sort tasks counted (owned %d, stolen %d)", budget, st.SortOwned, st.SortStolen)
		}
		if st.SortNearStolen > st.SortStolen {
			t.Fatalf("budget=%d: near %d > stolen %d", budget, st.SortNearStolen, st.SortStolen)
		}
	}
	// threads == 1 never activates NUMA, even with a multi-node machine.
	_, st, err := Multiply(acsc, b, Options{Threads: 1, NUMA: fakeTwoNode()})
	if err != nil {
		t.Fatal(err)
	}
	if st.NUMANodes != 1 {
		t.Fatalf("single-thread NUMANodes = %d, want 1", st.NUMANodes)
	}
	// The Table VII fallback model must never activate: its CPU ids describe
	// the paper's machine, not this host.
	fb := numa.Fallback()
	_, st, err = Multiply(acsc, b, Options{Threads: 4, NUMA: fb})
	if err != nil {
		t.Fatal(err)
	}
	if st.NUMANodes != 1 {
		t.Fatalf("fallback-model NUMANodes = %d, want 1 (inactive)", st.NUMANodes)
	}
}

// FuzzBatchedVsScalar drives random shapes through the batched kernels and
// the always-compiled scalar oracle (DisableBatch) and asserts identical CSR
// across thread counts and the budgeted path. On purego builds both runs use
// the scalar kernels and the comparison is trivially green — the target still
// exercises the pipeline.
func FuzzBatchedVsScalar(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})

	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := fuzzMatrices(data)
		if !ok {
			return
		}
		want, _, err := Multiply(a, b, Options{DisableBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{},
			{Threads: 3},
			{MemoryBudgetBytes: 256},
			{Threads: 2, MemoryBudgetBytes: 256, Workspace: ws},
		} {
			got, _, err := Multiply(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(want, got, 0) {
				t.Fatalf("batched (opt %+v) differs from scalar oracle", opt)
			}
		}
	})
}
