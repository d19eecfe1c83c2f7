package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/metrics"
)

// hedgeMinSamples is how many successful block latencies must exist before
// the hedge delay switches from Config.HedgeDelay to the observed p99.
const hedgeMinSamples = 8

// Coordinator fans 2D block-sharded products out over its backends and
// reduces the partials — see the package comment for the failure ladder.
// Safe for concurrent use.
type Coordinator struct {
	cfg      Config
	backends []Backend
	breakers []*breaker
	now      func() time.Time
	// planBlocks is Local.PlanBlocksFrom; tests wrap it to count the cuts.
	planBlocks func(root *pbspgemm.Plan, a, b *pbspgemm.CSR, g pbspgemm.Grid, opts ...pbspgemm.Option) (*pbspgemm.GridPlan, error)

	rr uint64 // round-robin cursor over backends

	// jitter is the xorshift state behind the full-jitter backoff; guarded
	// by jmu (cheap: one draw per retry, retries are the rare path).
	jmu    sync.Mutex
	jitter uint64

	// lat is the sliding window of successful block latencies (seconds)
	// the hedge delay derives its p99 from.
	lmu  sync.Mutex
	lat  []float64
	lpos int

	products, blocks, retries, hedges, fallbacks atomic.Int64
}

// New builds a Coordinator over cfg.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("shard: Config.Local engine is required")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg: cfg,
		now: time.Now,
		lat: make([]float64, 0, 64),

		planBlocks: cfg.Local.PlanBlocksFrom,
	}
	c.jitter = cfg.Seed
	if c.jitter == 0 {
		c.jitter = 0x9e3779b97f4a7c15
	}
	if c.backends = cfg.Backends; len(c.backends) == 0 { // MaxBlockBytes budgets the block and its fallback
		if m, f := cfg.MaxBlockBytes, cfg.FallbackBudgetBytes; m > 0 && (f <= 0 || m < f) {
			c.cfg.FallbackBudgetBytes = m
		}
		c.backends = []Backend{NewEnginePool("local", cfg.Local, 1, pinned(cfg.Options, cfg.MaxBlockBytes)...)}
	}
	c.breakers = make([]*breaker, len(c.backends))
	for i := range c.breakers {
		c.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func() time.Time { return c.now() })
	}
	return c, nil
}

// Status is the coordinator's slice of a /metrics snapshot.
type Status struct {
	Products  int64                    `json:"products"`
	Blocks    int64                    `json:"blocks"`
	Retries   int64                    `json:"retries"`
	Hedges    int64                    `json:"hedges"`
	Fallbacks int64                    `json:"fallbacks"`
	Peers     map[string]BreakerStatus `json:"peers"`
}

// Status snapshots the cumulative counters and every backend's breaker.
func (c *Coordinator) Status() Status {
	s := Status{
		Products:  c.products.Load(),
		Blocks:    c.blocks.Load(),
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		Fallbacks: c.fallbacks.Load(),
		Peers:     make(map[string]BreakerStatus, len(c.backends)),
	}
	for i, be := range c.backends {
		s.Peers[be.Name()] = c.breakers[i].status()
	}
	return s
}

// Multiply computes C = A·B sharded over the backends, or with none
// configured as one budgeted in-process block. While the grid keeps the inner
// dimension whole — always, unless rows and columns are both at MaxGridDim or
// their extent — the result is bit-identical to a single-node Engine.Multiply
// with the PB kernel, float values included. An inner split (Inner > 1)
// regroups the float additions in its k-reduce, so bit-identity then needs
// exact sums (integer-valued matrices); the result stays deterministic for a
// given grid. Re-dispatch (retry, hedge, fallback) can never change the
// bytes. On failure the error is typed (*BlockError, *ReduceError, or the ctx
// error) and no C is returned — never a partial product.
func (c *Coordinator) Multiply(ctx context.Context, a, b *pbspgemm.CSR) (*Result, error) {
	start := c.now()
	gp, err := c.partition(ctx, a, b)
	if err != nil {
		return nil, err
	}
	defer c.forget(gp, a, b)
	c.products.Add(1)
	c.blocks.Add(int64(len(gp.Blocks)))

	res := &Result{Grid: gp.Grid, Blocks: len(gp.Blocks)}
	for i := range gp.Blocks {
		res.Flops += gp.Blocks[i].Plan.Flops // exact per block
	}
	partials := make([]*pbspgemm.CSR, len(gp.Blocks))
	var stats productStats

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel() // stop sibling blocks: the product cannot complete
		}
		errMu.Unlock()
	}
	// Fan out: every block is independent; concurrency is bounded by the
	// backends themselves (pool semaphores, peer connection limits), so the
	// coordinator dispatches all blocks and lets the ladder pace them.
	for i := range gp.Blocks {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			blk := &gp.Blocks[idx]
			p, err := c.runBlock(runCtx, blk, &stats)
			if err != nil {
				fail(err)
				return
			}
			partials[idx] = p
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		// Prefer reporting the caller's own cancellation over a block error
		// it induced.
		if ctx.Err() != nil && !errors.As(firstErr, new(*BlockError)) {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}

	cblocks, err := c.reduce(gp, partials)
	if err != nil {
		return nil, err
	}
	res.C = assemble(gp, cblocks)
	res.Retries = stats.retries.Load()
	res.Hedges = stats.hedges.Load()
	res.Fallbacks = stats.fallbacks.Load()
	res.Elapsed = c.now().Sub(start)
	return res, nil
}

// productStats accumulates one product's walk down the failure ladder.
type productStats struct {
	retries, hedges, fallbacks atomic.Int64
}

// partition is one unplanned 1×1×1 block on the inputs when splitting is off
// or the product runs in process. Otherwise it cuts the grid once: one plan
// of the whole product gives the block count (see grid). Only when the cut's
// own counts predict a block over MaxBlockBytes (skewed inputs) is the count
// raised as if every block were that heavy and the cut, by then cheap,
// redone. A grid that cannot grow is returned as it is: peers may shed its
// oversized blocks, and the retry ladder absorbs that.
func (c *Coordinator) partition(ctx context.Context, a, b *pbspgemm.CSR) (*pbspgemm.GridPlan, error) {
	if c.cfg.MaxBlockBytes <= 0 || len(c.cfg.Backends) == 0 {
		if a.NumCols != b.NumRows {
			return nil, fmt.Errorf("shard: inner dimensions disagree (%dx%d)·(%dx%d): %w",
				a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
		}
		return &pbspgemm.GridPlan{
			Grid:       pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 1},
			RowOffsets: []int32{0, a.NumRows}, ColOffsets: []int32{0, b.NumCols}, InnerOffsets: []int32{0, a.NumCols},
			A: [][]*pbspgemm.CSR{{a}}, B: [][]*pbspgemm.CSR{{b}},
			Blocks: []pbspgemm.BlockPlan{{A: a, B: b, Plan: &pbspgemm.Plan{Flops: pbspgemm.Flops(a, b)}}},
		}, nil
	}
	// The root plan prices the kernel every block runs: the grid is cut at
	// PB's footprint, not at that of whatever Auto would pick for the whole.
	root, err := c.cfg.Local.Plan(ctx, a, b, pinned(c.cfg.Options, 0)...)
	if err != nil {
		return nil, err
	}
	g := c.grid(root.PredictedFootprintBytes, a, b)
	for {
		gp, err := c.planBlocks(root, a, b, g, c.cfg.Options...)
		if err != nil || gp.MaxFootprintBytes <= c.cfg.MaxBlockBytes {
			return gp, err
		}
		ng := c.grid(int64(g.Blocks())*gp.MaxFootprintBytes, a, b)
		if ng == g {
			return gp, nil
		}
		g = ng
	}
}

// grid counts the blocks that bytes, plus an eighth for the imbalance flop-cut
// row bands leave, make at MaxBlockBytes apiece, and spends them on A's rows
// first — a row band is a view, walks only its own rows and needs no reduce —
// then on B's columns, and on the inner dimension only when both are at
// MaxGridDim or their extent.
func (c *Coordinator) grid(bytes int64, a, b *pbspgemm.CSR) pbspgemm.Grid {
	n := max(1, (bytes+bytes/8+c.cfg.MaxBlockBytes-1)/c.cfg.MaxBlockBytes)
	dim := func(extent int32) int {
		d := min(n, int64(c.cfg.MaxGridDim), int64(max(extent, 1)))
		n = (n + d - 1) / d
		return int(d)
	}
	return pbspgemm.Grid{Rows: dim(a.NumRows), Cols: dim(b.NumCols), Inner: dim(a.NumCols)} // calls run left to right
}

// forgetter is implemented by backends that remember the matrices they were
// sent (a PeerClient's upload ids).
type forgetter interface{ Forget(ms []*pbspgemm.CSR) }

// forget has such backends drop the blocks this product cut; an input handed
// over whole stays known: it is what the next product repeats.
func (c *Coordinator) forget(gp *pbspgemm.GridPlan, a, b *pbspgemm.CSR) {
	var cut []*pbspgemm.CSR
	for _, blk := range gp.Blocks {
		cut = append(cut, blk.A, blk.B)
	}
	cut = slices.DeleteFunc(cut, func(m *pbspgemm.CSR) bool { return m == a || m == b })
	for _, be := range c.backends {
		if f, ok := be.(forgetter); ok {
			f.Forget(cut)
		}
	}
}

// runBlock walks one block down the failure ladder: pick a live backend,
// attempt (hedged), classify, back off, retry — and when attempts are
// exhausted or no backend is live, recompute on the local engine (under
// FallbackBudgetBytes when set). Returns the block's C or a typed *BlockError.
func (c *Coordinator) runBlock(ctx context.Context, blk *pbspgemm.BlockPlan, stats *productStats) (*pbspgemm.CSR, error) {
	var lastErr error
	attempts := 0
	for attempts < c.cfg.MaxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bi := c.pick(ctx, -1)
		if bi < 0 {
			break // every breaker open: straight to the terminal rung
		}
		p, err := c.hedged(ctx, bi, blk, stats)
		if err == nil {
			return p, nil
		}
		lastErr = err
		attempts++
		c.retries.Add(1)
		stats.retries.Add(1)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retryable(err) {
			break
		}
		if attempts >= c.cfg.MaxAttempts {
			break
		}
		if err := c.backoff(ctx, attempts, err); err != nil {
			return nil, err
		}
	}
	// Terminal rung: the local engine, under FallbackBudgetBytes when set.
	// Bit-identical to what any backend would have produced (same pinned
	// kernel, deterministic across threads and budgets).
	c.fallbacks.Add(1)
	stats.fallbacks.Add(1)
	p, err := c.localFallback(ctx, blk)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if lastErr == nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("%v (after backend error: %w)", err, lastErr)
		}
		return nil, &BlockError{I: blk.I, J: blk.J, K: blk.K, Attempts: attempts, Err: lastErr}
	}
	return p, nil
}

// localFallback recomputes blk on the local engine, under FallbackBudgetBytes
// when configured.
func (c *Coordinator) localFallback(ctx context.Context, blk *pbspgemm.BlockPlan) (*pbspgemm.CSR, error) {
	res, err := c.cfg.Local.Multiply(ctx, blk.A, blk.B, pinned(c.cfg.Options, c.cfg.FallbackBudgetBytes)...)
	if err != nil {
		return nil, err
	}
	return res.C, nil
}

// pick returns the index of the next live backend after the round-robin
// cursor, skipping exclude and every backend whose breaker denies traffic;
// a half-open breaker's probe (Backend.Probe) runs here, so a dark peer
// costs one health check, not a block attempt. Returns -1 when no backend
// is live.
func (c *Coordinator) pick(ctx context.Context, exclude int) int {
	n := len(c.backends)
	start := int(atomic.AddUint64(&c.rr, 1))
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if i == exclude {
			continue
		}
		ok, probe := c.breakers[i].allow()
		if !ok {
			continue
		}
		if probe {
			pctx, pcancel := context.WithTimeout(ctx, 2*time.Second)
			err := c.backends[i].Probe(pctx)
			pcancel()
			if err != nil {
				c.breakers[i].failure()
				continue
			}
			// The probe passed; the block attempt itself is the half-open
			// trial whose outcome closes or re-opens the breaker.
		}
		return i
	}
	return -1
}

// outcome is one attempt's result.
type outcome struct {
	c   *pbspgemm.CSR
	err error
}

// hedged runs one block attempt on backend bi with straggler hedging: if
// the primary has not finished after the p99-derived delay, the same block
// is re-dispatched on a different backend; the first result wins and the
// loser is cancelled. All launched attempts are joined before return, so a
// finished product never leaks goroutines.
func (c *Coordinator) hedged(ctx context.Context, bi int, blk *pbspgemm.BlockPlan, stats *productStats) (*pbspgemm.CSR, error) {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if c.cfg.BlockTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.BlockTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	ch := make(chan outcome, 2)
	launched := 1
	go c.attempt(actx, bi, blk, ch)

	var timer *time.Timer
	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(); d >= 0 {
		timer = time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var firstErr error
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				cancel()
				for launched > 1 {
					<-ch // join the cancelled loser
					launched--
				}
				return out.c, nil
			}
			launched--
			if firstErr == nil {
				firstErr = out.err
			}
			if launched == 0 {
				return nil, firstErr
			}
			// One attempt failed but the other is still running: let it
			// finish (it may win).
		case <-hedgeC:
			hedgeC = nil
			if alt := c.pick(ctx, bi); alt >= 0 {
				c.hedges.Add(1)
				stats.hedges.Add(1)
				launched++
				go c.attempt(actx, alt, blk, ch)
			}
		}
	}
}

// attempt runs one block multiply on backend bi, feeding the breaker and
// the latency window. A panic anywhere below (a backend bug, an injected
// fault) is contained to this attempt. Cancellation of our own actx — the
// hedge loser, the product aborting — is not charged to the backend.
func (c *Coordinator) attempt(ctx context.Context, bi int, blk *pbspgemm.BlockPlan, ch chan<- outcome) {
	var p *pbspgemm.CSR
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("shard: attempt panic on %s: %v", c.backends[bi].Name(), v)
			}
		}()
		if faultinject.Enabled {
			if ferr := faultinject.FireErr(faultinject.SiteBlockRPC, bi); ferr != nil {
				return &transientError{err: ferr}
			}
		}
		t0 := c.now()
		p, err = c.backends[bi].Multiply(ctx, blk.A, blk.B)
		if err == nil {
			c.observe(c.now().Sub(t0))
		}
		return err
	}()
	switch {
	case err == nil:
		c.breakers[bi].success()
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		// Our own cancellation (hedge winner elsewhere, product aborting):
		// no verdict on the backend.
		c.breakers[bi].cancelTrial()
	default:
		// Real failures — including this attempt blowing its deadline —
		// count against the backend.
		c.breakers[bi].failure()
	}
	ch <- outcome{c: p, err: err}
}

// transientError marks an injected fault as a retryable infrastructure
// failure.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Retryable() bool { return true }

// observe folds one successful block latency into the sliding window.
func (c *Coordinator) observe(d time.Duration) {
	c.lmu.Lock()
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, d.Seconds())
	} else {
		c.lat[c.lpos] = d.Seconds()
		c.lpos = (c.lpos + 1) % len(c.lat)
	}
	c.lmu.Unlock()
}

// hedgeDelay is the straggler threshold: the observed p99 block latency
// once enough samples exist, Config.HedgeDelay before that; never below
// 1ms (a zero delay would hedge every block). Negative Config.HedgeDelay
// disables hedging (-1 returned).
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay < 0 {
		return -1
	}
	c.lmu.Lock()
	var d time.Duration
	if len(c.lat) >= hedgeMinSamples {
		d = time.Duration(metrics.Quantile(c.lat, 0.99) * float64(time.Second))
	} else {
		d = c.cfg.HedgeDelay
	}
	c.lmu.Unlock()
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// backoff sleeps the full-jitter exponential delay before retry n (1-based
// count of failures so far), honoring a server-sent Retry-After as a floor
// and the context as a hard stop.
func (c *Coordinator) backoff(ctx context.Context, n int, cause error) error {
	ceil := c.cfg.RetryBaseDelay << (n - 1)
	if ceil > c.cfg.RetryMaxDelay || ceil <= 0 {
		ceil = c.cfg.RetryMaxDelay
	}
	d := time.Duration(c.rand() % uint64(ceil+1))
	if ra := retryAfterOf(cause); ra > d {
		d = ra
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rand is one xorshift draw (seeded by Config.Seed: chaos runs replay).
func (c *Coordinator) rand() uint64 {
	c.jmu.Lock()
	x := c.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.jitter = x
	c.jmu.Unlock()
	return x
}

// reduce combines each C(i,j)'s partial products over k in ascending order
// with EWiseAdd — the same left-to-right direction as the single-node fold.
// Blocks are laid out k-fastest in GridPlan.Blocks, so the partials of
// C(i,j) are the contiguous run starting at (i·Cols+j)·Inner.
func (c *Coordinator) reduce(gp *pbspgemm.GridPlan, partials []*pbspgemm.CSR) ([][]*pbspgemm.CSR, error) {
	g := gp.Grid
	out := make([][]*pbspgemm.CSR, g.Rows)
	for i := 0; i < g.Rows; i++ {
		out[i] = make([]*pbspgemm.CSR, g.Cols)
		for j := 0; j < g.Cols; j++ {
			if faultinject.Enabled {
				if err := faultinject.FireErr(faultinject.SiteReduce, i*g.Cols+j); err != nil {
					return nil, &ReduceError{I: i, J: j, Err: err}
				}
			}
			base := (i*g.Cols + j) * g.Inner
			acc := partials[base]
			for k := 1; k < g.Inner; k++ {
				sum, err := pbspgemm.EWiseAdd(pbspgemm.Arithmetic(),
					pbspgemm.Float64Matrix(acc), pbspgemm.Float64Matrix(partials[base+k]))
				if err != nil {
					return nil, &ReduceError{I: i, J: j, Err: err}
				}
				acc = pbspgemm.Float64CSR(sum)
			}
			out[i][j] = acc
		}
	}
	return out, nil
}

// assemble stitches the grid of C(i,j) blocks into the full canonical CSR.
// Without a column split each row band's arrays are copied whole; with one,
// column blocks are ascending index ranges, so concatenating each local
// row's segments left to right lands sorted.
func assemble(gp *pbspgemm.GridPlan, cblocks [][]*pbspgemm.CSR) *pbspgemm.CSR {
	g := gp.Grid
	if g.Rows == 1 && g.Cols == 1 {
		return cblocks[0][0]
	}
	var nnz int64
	for i := range cblocks {
		for _, blk := range cblocks[i] {
			nnz += blk.NNZ()
		}
	}
	out := matrix.NewCSR(gp.RowOffsets[g.Rows], gp.ColOffsets[g.Cols], nnz)
	var p int64
	for i := range cblocks {
		r0 := gp.RowOffsets[i]
		if g.Cols == 1 {
			blk := cblocks[i][0]
			for lr, q := range blk.RowPtr {
				out.RowPtr[int(r0)+lr] = p + q
			}
			copy(out.ColIdx[p:], blk.ColIdx)
			copy(out.Val[p:], blk.Val)
			p += blk.NNZ()
			continue
		}
		for lr := int32(0); lr < gp.RowOffsets[i+1]-r0; lr++ {
			for j, blk := range cblocks[i] {
				lo, hi := blk.RowPtr[lr], blk.RowPtr[lr+1]
				for q, col := range blk.ColIdx[lo:hi] {
					out.ColIdx[p+int64(q)] = col + gp.ColOffsets[j]
				}
				p += int64(copy(out.Val[p:], blk.Val[lo:hi]))
			}
			out.RowPtr[r0+lr+1] = p
		}
	}
	return out
}
