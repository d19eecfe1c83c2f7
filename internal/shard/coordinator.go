package shard

import (
	"context"
	"errors"
	"fmt"
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

// Coordinator fans row-banded products out over its backends and stitches
// the bands — see the package comment for the failure ladder. Safe for
// concurrent use.
type Coordinator struct {
	cfg      Config
	backends []Backend
	breakers []*breaker
	now      func() time.Time

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
	}
	c.jitter = cfg.Seed
	if c.jitter == 0 {
		c.jitter = 0x9e3779b97f4a7c15
	}
	if c.backends = cfg.Backends; len(c.backends) == 0 {
		c.backends = []Backend{NewEnginePool("local", cfg.Local, 1, cfg.Options...)}
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
// configured as one budgeted in-process block. The result is bit-identical to
// a single-node Engine.Multiply with the PB kernel, float values included, and
// re-dispatch (retry, hedge, fallback) can never change the bytes. On failure
// the error is typed (*BlockError or the ctx error) and no C is returned —
// never a partial product.
func (c *Coordinator) Multiply(ctx context.Context, a, b *pbspgemm.CSR) (*Result, error) {
	start := c.now()
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("shard: inner dimensions disagree (%dx%d)·(%dx%d): %w",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols, matrix.ErrShape)
	}
	root := &pbspgemm.Plan{Flops: pbspgemm.Flops(a, b)}
	gp, err := c.partition(root, a, b)
	if err != nil {
		return nil, err
	}
	defer c.forget(gp, a)
	c.products.Add(1)
	c.blocks.Add(int64(len(gp.Blocks)))

	res := &Result{Grid: gp.Grid, Blocks: len(gp.Blocks), Flops: root.Flops}
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

	res.C = assemble(gp, partials)
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

// partition is one block on the inputs with no configured Backends: PB's bin
// groups are the row bands without the copies. Otherwise it cuts A into one
// flop-balanced row band per backend, a view of A that multiplies the whole B;
// the cut needs only root's flop count, not a plan of the product. One band a
// backend read faster than 2, 4 or 8 on two loopback peers and on one pool;
// on two in-process pools 4 read ~10 % faster (ER 2¹³·d8 at 1 MiB, 2 vCPUs).
func (c *Coordinator) partition(root *pbspgemm.Plan, a, b *pbspgemm.CSR) (*pbspgemm.GridPlan, error) {
	if len(c.cfg.Backends) == 0 {
		return &pbspgemm.GridPlan{
			Grid:       pbspgemm.Grid{Rows: 1, Cols: 1, Inner: 1},
			RowOffsets: []int32{0, a.NumRows},
			Blocks:     []pbspgemm.BlockPlan{{A: a, B: b, Plan: root}},
		}, nil
	}
	g := pbspgemm.Grid{Rows: len(c.cfg.Backends), Cols: 1, Inner: 1}
	return c.cfg.Local.PlanBlocksFrom(root, a, b, g, c.cfg.Options...)
}

// forgetter is implemented by backends that remember the matrices they were
// sent (a PeerClient's upload ids).
type forgetter interface{ Forget(ms []*pbspgemm.CSR) }

// forget has such backends drop the row bands this product cut; B, and an A
// handed over whole, stay known: they are what the next product repeats.
func (c *Coordinator) forget(gp *pbspgemm.GridPlan, a *pbspgemm.CSR) {
	var cut []*pbspgemm.CSR
	for _, blk := range gp.Blocks {
		if blk.A != a {
			cut = append(cut, blk.A)
		}
	}
	for _, be := range c.backends {
		if f, ok := be.(forgetter); ok {
			f.Forget(cut)
		}
	}
}

// runBlock walks one block down the failure ladder: pick a live backend,
// attempt (hedged), classify, back off, retry — and when attempts are
// exhausted or no backend is live, recompute on the local engine. Returns the
// block's C or a typed *BlockError.
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
	// Terminal rung: the local engine. Bit-identical to what any backend
	// would have produced (same pinned kernel, deterministic across threads
	// and budgets).
	c.fallbacks.Add(1)
	stats.fallbacks.Add(1)
	res, err := c.localFallback(ctx, blk)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if lastErr == nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("%v (after backend error: %w)", err, lastErr)
		}
		return nil, &BlockError{I: blk.I, Attempts: attempts, Err: lastErr}
	}
	return res.C, nil
}

// localFallback recomputes blk on the local engine under MaxBlockBytes, the
// budget every backend ran it under.
func (c *Coordinator) localFallback(ctx context.Context, blk *pbspgemm.BlockPlan) (*pbspgemm.Result, error) {
	return c.cfg.Local.Multiply(ctx, blk.A, blk.B, pinned(c.cfg.Options, c.cfg.MaxBlockBytes)...)
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
		p, err = c.backends[bi].Multiply(ctx, blk.A, blk.B, c.cfg.MaxBlockBytes)
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

// assemble stitches the row bands' products into the full canonical CSR: each
// band's arrays are copied whole, its RowPtr shifted by the entries before it.
func assemble(gp *pbspgemm.GridPlan, bands []*pbspgemm.CSR) *pbspgemm.CSR {
	if len(bands) == 1 {
		return bands[0]
	}
	var nnz int64
	for _, band := range bands {
		nnz += band.NNZ()
	}
	out := matrix.NewCSR(gp.RowOffsets[len(bands)], bands[0].NumCols, nnz)
	var p int64
	for i, band := range bands {
		r0 := int(gp.RowOffsets[i])
		for lr, q := range band.RowPtr {
			out.RowPtr[r0+lr] = p + q
		}
		copy(out.ColIdx[p:], band.ColIdx)
		copy(out.Val[p:], band.Val)
		p += band.NNZ()
	}
	return out
}
