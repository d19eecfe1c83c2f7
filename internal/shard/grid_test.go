package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"pbspgemm"
)

// countCuts wraps c's PlanBlocksFrom so a test can count how often partition cut.
func countCuts(c *Coordinator) *int {
	n, real := new(int), c.planBlocks
	c.planBlocks = func(root *pbspgemm.Plan, a, b *pbspgemm.CSR, g pbspgemm.Grid, opts ...pbspgemm.Option) (*pbspgemm.GridPlan, error) {
		*n++
		return real(root, a, b, g, opts...)
	}
	return n
}

// shape is an empty rows×cols matrix: the grid policy reads extents only.
func shape(rows, cols int32) *pbspgemm.CSR {
	return &pbspgemm.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
}

// TestGridPolicy is the rule partition sizes a grid by: the blocks that the
// predicted bytes (plus the 1/8 margin) make at MaxBlockBytes apiece go to
// rows, to columns once rows are at MaxGridDim or the row count, and to the
// inner dimension only after both.
func TestGridPolicy(t *testing.T) {
	for _, tc := range []struct {
		name             string
		bytes, blockSize int64
		maxDim           int
		m, k, n          int32 // A is m×k, B is k×n
		want             pbspgemm.Grid
	}{
		{"fits one block with the margin", 800, 1000, 16, 100, 100, 100, pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 1}},
		{"margin rounds up", 900, 1000, 16, 100, 100, 100, pbspgemm.Grid{Rows: 2, Cols: 1, Inner: 1}},
		{"rows first, no power of two", 5000, 1000, 16, 100, 100, 100, pbspgemm.Grid{Rows: 6, Cols: 1, Inner: 1}},
		{"columns once rows hit MaxGridDim", 40000, 1000, 16, 100, 100, 100, pbspgemm.Grid{Rows: 16, Cols: 3, Inner: 1}},
		{"columns once rows hit the row count", 5000, 1000, 16, 3, 100, 100, pbspgemm.Grid{Rows: 3, Cols: 2, Inner: 1}},
		{"inner only after both", 5000, 1000, 2, 100, 100, 100, pbspgemm.Grid{Rows: 2, Cols: 2, Inner: 2}},
		{"one-row A goes to columns", 5000, 1000, 16, 1, 100, 100, pbspgemm.Grid{Rows: 1, Cols: 6, Inner: 1}},
		{"one-column B skips to inner", 40000, 1000, 16, 100, 100, 1, pbspgemm.Grid{Rows: 16, Cols: 1, Inner: 3}},
		{"row times column has only inner", 5000, 1000, 16, 1, 100, 1, pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 6}},
		{"MaxGridDim 1 never splits", 5000, 1000, 1, 100, 100, 100, pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 1}},
		{"MaxBlockBytes 1 saturates MaxGridDim", 5000, 1, 16, 100, 100, 100, pbspgemm.Grid{Rows: 16, Cols: 16, Inner: 16}},
		{"MaxBlockBytes 1 saturates the extents", 5000, 1, 16, 3, 5, 2, pbspgemm.Grid{Rows: 3, Cols: 2, Inner: 5}},
	} {
		c, err := New(Config{Local: newEngine(t), MaxBlockBytes: tc.blockSize, MaxGridDim: tc.maxDim})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if got := c.grid(tc.bytes, shape(tc.m, tc.k), shape(tc.k, tc.n)); got != tc.want {
			t.Errorf("%s: grid %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPartitionCutsOnce(t *testing.T) {
	eng := newEngine(t)
	pool := []Backend{NewEnginePool("local", eng, 1)} // configured backends keep the grid
	a, b := pbspgemm.NewER(2048, 8, 3), pbspgemm.NewER(2048, 8, 4)
	t.Run("splitting off aliases the inputs", func(t *testing.T) {
		c, _ := New(Config{Local: eng, MaxBlockBytes: -1})
		cuts := countCuts(c)
		gp, err := c.partition(context.Background(), a, b)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if *cuts != 0 || gp.Grid.Blocks() != 1 || gp.Blocks[0].A != a || gp.Blocks[0].B != b {
			t.Fatalf("grid %v after %d cuts: want the inputs themselves as one block, uncut", gp.Grid, *cuts)
		}
	})
	t.Run("uniform pair", func(t *testing.T) {
		c, _ := New(Config{Local: eng, Backends: pool, MaxBlockBytes: 256 << 10})
		cuts := countCuts(c)
		gp, err := c.partition(context.Background(), a, b)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if *cuts != 1 {
			t.Fatalf("partition called PlanBlocks %d times on a uniform pair, want 1", *cuts)
		}
		if gp.Grid.Rows < 2 || gp.Grid.Cols != 1 || gp.Grid.Inner != 1 || gp.MaxFootprintBytes > 256<<10 {
			t.Fatalf("grid %v, heaviest block %d B: want row bands only, all under 256 KiB", gp.Grid, gp.MaxFootprintBytes)
		}
	})
	t.Run("skewed pair priced at PB cuts once", func(t *testing.T) {
		// The root plan prices PB, the kernel every block runs. At a third of
		// that price the first cut, 4×1×1, already fits: priced at SPA's
		// smaller footprint it was cut too narrow and regrown.
		ra, rb := pbspgemm.NewRMAT(10, 8, 5), pbspgemm.NewRMAT(10, 8, 6)
		root, err := eng.Plan(context.Background(), ra, rb, pbspgemm.WithAlgorithm(pbspgemm.PB))
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		c, _ := New(Config{Local: eng, Backends: pool, MaxBlockBytes: root.PredictedFootprintBytes / 3, MaxGridDim: 4})
		cuts := countCuts(c)
		gp, err := c.partition(context.Background(), ra, rb)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if *cuts != 1 || gp.MaxFootprintBytes > c.cfg.MaxBlockBytes {
			t.Fatalf("grid %v after %d cuts, heaviest block %d B of %d: want the first cut to fit",
				gp.Grid, *cuts, gp.MaxFootprintBytes, c.cfg.MaxBlockBytes)
		}
	})
	t.Run("skewed pair regrows once", func(t *testing.T) {
		// R-MAT columns are as skewed as its rows, so the first of two equal-width
		// column bands holds far more than half of the product: the cut's own
		// counts put it over the ceiling and the grid is cut again, wider. The
		// ceiling is a sixth of the whole at PB's price, the one the
		// coordinator's root plan names: the 4×2 cut regrows to 4×3.
		ra, rb := pbspgemm.NewRMAT(10, 8, 5), pbspgemm.NewRMAT(10, 8, 6)
		root, err := eng.Plan(context.Background(), ra, rb, pbspgemm.WithAlgorithm(pbspgemm.PB))
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		c, _ := New(Config{Local: eng, Backends: pool, MaxBlockBytes: root.PredictedFootprintBytes / 6, MaxGridDim: 4})
		cuts := countCuts(c)
		gp, err := c.partition(context.Background(), ra, rb)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if *cuts != 2 || gp.MaxFootprintBytes > c.cfg.MaxBlockBytes || gp.Grid.Rows != 4 || gp.Grid.Cols < 2 || gp.Grid.Inner != 1 {
			t.Fatalf("grid %v after %d cuts, heaviest block %d B of %d: want 4 row bands, columns split by one regrow, inner whole",
				gp.Grid, *cuts, gp.MaxFootprintBytes, c.cfg.MaxBlockBytes)
		}
	})
}

// TestInProcessProductIsOneBudgetedBlock: with no configured Backends the
// product is one uncut block that the in-process pool runs under a PB memory
// budget of MaxBlockBytes, bit-identical to direct PB and to the row bands an
// explicit pool runs. MaxBlockBytes 0 and -1 run unbudgeted: a negative
// value never reaches WithMemoryBudget, where it is an OptionError.
func TestInProcessProductIsOneBudgetedBlock(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	a, b := pbspgemm.NewER(1024, 8, 21), pbspgemm.NewER(1024, 8, 22)
	direct, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("direct multiply: %v", err)
	}
	one := pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 1}
	for _, maxBlock := range []int64{128 << 10, 0, -1} {
		c, err := New(Config{Local: eng, MaxBlockBytes: maxBlock, HedgeDelay: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cuts := countCuts(c)
		gp, err := c.partition(ctx, a, b)
		if err != nil || *cuts != 0 || gp.Grid != one || len(gp.Blocks) != 1 {
			t.Fatalf("MaxBlockBytes %d: grid %v of %d blocks after %d cuts (%v), want one uncut block",
				maxBlock, gp.Grid, len(gp.Blocks), *cuts, err)
		}
		res, err := c.Multiply(ctx, a, b)
		if err != nil || res.Grid != one || res.Blocks != 1 || res.Retries+res.Fallbacks != 0 {
			t.Fatalf("MaxBlockBytes %d: %+v (%v), want one block on a healthy ladder", maxBlock, res, err)
		}
		sameCSR(t, direct.C, res.C)
		// The pool's own options cut the bins into groups under a budget only.
		run, err := eng.Multiply(ctx, a, b, c.backends[0].(*EnginePool).opts...)
		if err != nil || (run.PB.NGroups > 1) != (maxBlock > 0) {
			t.Fatalf("MaxBlockBytes %d: the pool's options run %d bin groups (%v)", maxBlock, run.PB.NGroups, err)
		}
	}
	c, err := New(Config{Local: eng, Backends: []Backend{NewEnginePool("local", eng, 1)}, MaxBlockBytes: 128 << 10, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Multiply(ctx, a, b)
	if err != nil || res.Grid.Rows < 2 || res.Grid.Cols != 1 || res.Grid.Inner != 1 {
		t.Fatalf("explicit pool: grid %v (%v), want row bands only", res.Grid, err)
	}
	sameCSR(t, direct.C, res.C)
}

// TestFallbackFromViewsMatchesBackend: the row bands a block holds are views
// of the caller's A, and the local fallback multiplies those same views — it
// must land on the bytes a backend returns, real values included.
func TestFallbackFromViewsMatchesBackend(t *testing.T) {
	eng := newEngine(t)
	a, b := pbspgemm.NewER(1024, 8, 21), pbspgemm.NewER(1024, 8, 22)
	down := &stubBackend{name: "down", eng: eng, fn: func(int, context.Context) error {
		return &permanentError{msg: "bad request"}
	}}
	var got [2]*Result
	for i, backends := range [][]Backend{{down}, nil} {
		c, err := New(Config{Local: eng, Backends: backends, MaxBlockBytes: 128 << 10, HedgeDelay: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if got[i], err = c.Multiply(context.Background(), a, b); err != nil {
			t.Fatalf("Multiply: %v", err)
		}
	}
	if got[0].Grid.Rows < 2 || got[0].Fallbacks != int64(got[0].Blocks) || got[1].Fallbacks != 0 {
		t.Fatalf("grid %v: %d of %d blocks fell back (healthy run: %d)", got[0].Grid, got[0].Fallbacks, got[0].Blocks, got[1].Fallbacks)
	}
	sameCSR(t, got[1].C, got[0].C)
}

// TestBudgetedFallbackBitIdentical: a fallback under a FallbackBudgetBytes
// that cuts the product's bins into groups returns the direct PB product's
// bytes on real values, on a 1×1 grid and on row bands alike — a budget
// changes which bins expand together, never a bin's fold.
func TestBudgetedFallbackBitIdentical(t *testing.T) {
	const budget = 16 << 10
	ctx := context.Background()
	eng := newEngine(t)
	a, b := pbspgemm.NewER(1024, 8, 21), pbspgemm.NewER(1024, 8, 22)
	direct, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("direct multiply: %v", err)
	}
	want := checksum(direct.C)
	local, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB), pbspgemm.WithMemoryBudget(budget))
	if err != nil || local.PB.NGroups < 2 {
		t.Fatalf("budgeted multiply: %d groups (%v), want ≥ 2", local.PB.NGroups, err)
	}
	down := &stubBackend{name: "down", eng: eng, fn: func(int, context.Context) error {
		return &permanentError{msg: "bad request"}
	}}
	for _, maxBlock := range []int64{0, 128 << 10} {
		c, err := New(Config{Local: eng, Backends: []Backend{down}, MaxBlockBytes: maxBlock,
			FallbackBudgetBytes: budget, HedgeDelay: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := c.Multiply(ctx, a, b)
		if err != nil {
			t.Fatalf("Multiply: %v", err)
		}
		if res.Fallbacks != int64(res.Blocks) || res.Grid.Inner != 1 {
			t.Fatalf("grid %v: %d of %d blocks fell back", res.Grid, res.Fallbacks, res.Blocks)
		}
		if got := checksum(res.C); got != want {
			t.Fatalf("grid %v: budgeted fallback hashes %x, the direct product %x", res.Grid, got, want)
		}
	}
}

// checksum hashes every array of m.
func checksum(m *pbspgemm.CSR) uint64 {
	h := fnv.New64a()
	for _, p := range m.RowPtr {
		fmt.Fprint(h, p, ",")
	}
	for i, c := range m.ColIdx {
		fmt.Fprint(h, c, ":", math.Float64bits(m.Val[i]), ",")
	}
	return h.Sum64()
}

// TestConcurrentCoordinatorsLeaveInputsAlone runs two coordinators over one
// engine on the same inputs at once (under -race in CI): blocks are views of
// those inputs, so anything writing through a block would show here.
func TestConcurrentCoordinatorsLeaveInputsAlone(t *testing.T) {
	eng := newEngine(t)
	a, b := pbspgemm.NewER(512, 8, 31), pbspgemm.NewER(512, 8, 32)
	sumA, sumB := checksum(a), checksum(b)
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("reference multiply: %v", err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	for i := range results {
		// Two grids: row views only, and row views of column-cut copies.
		c, err := New(Config{Local: eng, Backends: []Backend{NewEnginePool("local", eng, 1)},
			MaxBlockBytes: 32 << 10, MaxGridDim: 2 + 14*(i%2)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Multiply(context.Background(), a, b)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("Multiply %d: %v", i, errs[i])
		}
		if res.Grid.Inner == 1 {
			sameCSR(t, ref.C, res.C)
		}
	}
	if checksum(a) != sumA || checksum(b) != sumB {
		t.Fatal("a sharded product wrote through a block into its inputs")
	}
}
