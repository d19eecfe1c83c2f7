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

// partitionOf is partition on a root carrying a·b's flop count, as Multiply
// hands it over.
func partitionOf(c *Coordinator, a, b *pbspgemm.CSR) (*pbspgemm.GridPlan, error) {
	return c.partition(&pbspgemm.Plan{Flops: pbspgemm.Flops(a, b)}, a, b)
}

// TestPartitionCutsOnce: partition hands the inputs over whole with no
// configured backends, and otherwise cuts A once, into one view per backend
// over the whole B, whatever the budget.
func TestPartitionCutsOnce(t *testing.T) {
	eng := newEngine(t)
	a, b := pbspgemm.NewER(2048, 8, 3), pbspgemm.NewER(2048, 8, 4)
	t.Run("splitting off aliases the inputs", func(t *testing.T) {
		for _, maxBlock := range []int64{256 << 10, 0, -1} {
			c, _ := New(Config{Local: eng, MaxBlockBytes: maxBlock})
			gp, err := partitionOf(c, a, b)
			if err != nil {
				t.Fatalf("partition: %v", err)
			}
			if gp.Grid.Blocks() != 1 || gp.Blocks[0].A != a || gp.Blocks[0].B != b {
				t.Fatalf("MaxBlockBytes %d: grid %v, want the inputs themselves as one block", maxBlock, gp.Grid)
			}
		}
	})
	t.Run("uniform pair", func(t *testing.T) {
		// The band count follows the backends, not the budget: one band a
		// backend, views of A over the whole B; one backend takes A whole.
		for _, n := range []int{1, 2, 3} {
			var pools []Backend
			for range n {
				pools = append(pools, NewEnginePool("local", eng, 1))
			}
			for _, maxBlock := range []int64{256 << 10, 1, 0, -1} {
				c, _ := New(Config{Local: eng, Backends: pools, MaxBlockBytes: maxBlock})
				gp, err := partitionOf(c, a, b)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				if want := (pbspgemm.Grid{Rows: n, Cols: 1, Inner: 1}); gp.Grid != want {
					t.Fatalf("%d backends, MaxBlockBytes %d: grid %v, want %v", n, maxBlock, gp.Grid, want)
				}
				for _, blk := range gp.Blocks {
					if blk.B != b || &blk.A.ColIdx[0] != &a.ColIdx[a.RowPtr[gp.RowOffsets[blk.I]]] {
						t.Fatalf("%d backends: band %d is not a view of A over the whole B", n, blk.I)
					}
				}
			}
		}
	})
}

// budgetRecorder is a Backend that notes the budget of every call.
type budgetRecorder struct {
	Backend
	mu      sync.Mutex
	budgets []int64
}

func (r *budgetRecorder) Multiply(ctx context.Context, a, b *pbspgemm.CSR, budget int64) (*pbspgemm.CSR, error) {
	r.mu.Lock()
	r.budgets = append(r.budgets, budget)
	r.mu.Unlock()
	return r.Backend.Multiply(ctx, a, b, budget)
}

// TestInProcessProductIsOneBudgetedBlock: with no configured Backends the
// product is one uncut block that the in-process pool runs under a PB memory
// budget of MaxBlockBytes, bit-identical to direct PB and to the row bands two
// explicit pools run. MaxBlockBytes 0 and -1 run unbudgeted: a negative
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
		gp, err := partitionOf(c, a, b)
		if err != nil || gp.Grid != one || len(gp.Blocks) != 1 || gp.Blocks[0].A != a {
			t.Fatalf("MaxBlockBytes %d: grid %v of %d blocks (%v), want one uncut block", maxBlock, gp.Grid, len(gp.Blocks), err)
		}
		pool := c.backends[0].(*EnginePool)
		rec := &budgetRecorder{Backend: pool}
		c.backends[0] = rec
		res, err := c.Multiply(ctx, a, b)
		if err != nil || res.Grid != one || res.Blocks != 1 || res.Retries+res.Fallbacks != 0 {
			t.Fatalf("MaxBlockBytes %d: %+v (%v), want one block on a healthy ladder", maxBlock, res, err)
		}
		sameCSR(t, direct.C, res.C)
		if len(rec.budgets) != 1 || rec.budgets[0] != maxBlock {
			t.Fatalf("MaxBlockBytes %d: the pool was called with budgets %v", maxBlock, rec.budgets)
		}
		// The pool's options cut the bins into groups under a budget only.
		run, err := eng.Multiply(ctx, a, b, pinned(pool.opts, maxBlock)...)
		if err != nil || (run.PB.NGroups > 1) != (maxBlock > 0) {
			t.Fatalf("MaxBlockBytes %d: the pool's options run %d bin groups (%v)", maxBlock, run.PB.NGroups, err)
		}
	}
	c, err := New(Config{Local: eng, Backends: []Backend{NewEnginePool("local", eng, 1), NewEnginePool("other", eng, 1)},
		MaxBlockBytes: 128 << 10, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Multiply(ctx, a, b)
	if err != nil || res.Grid.Rows < 2 || res.Grid.Cols != 1 || res.Grid.Inner != 1 {
		t.Fatalf("explicit pools: grid %v (%v), want row bands only", res.Grid, err)
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
	for i, backends := range [][]Backend{{down, down}, nil} {
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

// TestBudgetedFallbackBitIdentical: a fallback under a MaxBlockBytes that
// cuts each band's bins into groups returns the direct PB product's bytes on
// real values, on one block and on row bands alike — a budget changes which
// bins expand together, never a bin's fold.
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
	down := &stubBackend{name: "down", eng: eng, fn: func(int, context.Context) error {
		return &permanentError{msg: "bad request"}
	}}
	for _, backends := range [][]Backend{nil, {down, down}} {
		c, err := New(Config{Local: eng, Backends: backends, MaxBlockBytes: budget, HedgeDelay: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if backends == nil {
			c.backends[0] = down // the in-process pool fails too
		}
		res, err := c.Multiply(ctx, a, b)
		if err != nil {
			t.Fatalf("Multiply: %v", err)
		}
		if res.Fallbacks != int64(res.Blocks) || res.Grid.Rows != max(len(backends), 1) {
			t.Fatalf("grid %v: %d of %d blocks fell back", res.Grid, res.Fallbacks, res.Blocks)
		}
		if got := checksum(res.C); got != want {
			t.Fatalf("grid %v: budgeted fallback hashes %x, the direct product %x", res.Grid, got, want)
		}
		gp, err := partitionOf(c, a, b)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if run, err := c.localFallback(ctx, &gp.Blocks[0]); err != nil || run.PB.NGroups < 2 {
			t.Fatalf("grid %v: the fallback runs %d bin groups (%v), want ≥ 2", res.Grid, run.PB.NGroups, err)
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
		// Two and three row bands: two pools, then three.
		backends := []Backend{NewEnginePool("local", eng, 1), NewEnginePool("other", eng, 1)}
		if i%2 == 1 {
			backends = append(backends, NewEnginePool("third", eng, 1))
		}
		c, err := New(Config{Local: eng, Backends: backends, MaxBlockBytes: 32 << 10})
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
		sameCSR(t, ref.C, res.C)
	}
	if checksum(a) != sumA || checksum(b) != sumB {
		t.Fatal("a sharded product wrote through a block into its inputs")
	}
}
