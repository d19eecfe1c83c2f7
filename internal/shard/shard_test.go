package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbspgemm"
)

// intER is an ER matrix with the random float values replaced by small
// integers: integer products and sums are exact in float64, so a k-split
// reduce regrouping the additions still lands on the same bytes as the
// single-node fold — the bit-identity tests below need that.
func intER(n int32, d int, seed uint64) *pbspgemm.CSR {
	m := pbspgemm.NewER(n, d, seed)
	for i := range m.Val {
		m.Val[i] = float64(i%7 + 1)
	}
	return m
}

func newEngine(t *testing.T) *pbspgemm.Engine {
	t.Helper()
	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(2))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func sameCSR(t *testing.T, want, got *pbspgemm.CSR) {
	t.Helper()
	if want.NumRows != got.NumRows || want.NumCols != got.NumCols {
		t.Fatalf("shape mismatch: want %dx%d got %dx%d", want.NumRows, want.NumCols, got.NumRows, got.NumCols)
	}
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz mismatch: want %d got %d", want.NNZ(), got.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: want %d got %d", i, want.RowPtr[i], got.RowPtr[i])
		}
	}
	for i := range want.ColIdx {
		if want.ColIdx[i] != got.ColIdx[i] {
			t.Fatalf("ColIdx[%d]: want %d got %d", i, want.ColIdx[i], got.ColIdx[i])
		}
		if want.Val[i] != got.Val[i] {
			t.Fatalf("Val[%d]: want %v got %v (not bit-identical)", i, want.Val[i], got.Val[i])
		}
	}
}

// stubBackend scripts per-call behavior for ladder tests.
type stubBackend struct {
	name string
	eng  *pbspgemm.Engine // compute result when fn says succeed

	mu    sync.Mutex
	calls int
	fn    func(call int, ctx context.Context) error // nil error = compute and succeed

	probeErr error
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Multiply(ctx context.Context, a, b *pbspgemm.CSR) (*pbspgemm.CSR, error) {
	s.mu.Lock()
	s.calls++
	call := s.calls
	fn := s.fn
	s.mu.Unlock()
	if fn != nil {
		if err := fn(call, ctx); err != nil {
			return nil, err
		}
	}
	res, err := s.eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		return nil, err
	}
	return res.C, nil
}

func (s *stubBackend) Probe(context.Context) error { return s.probeErr }

func (s *stubBackend) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// permanentError is a non-retryable failure.
type permanentError struct{ msg string }

func (e *permanentError) Error() string   { return e.msg }
func (e *permanentError) Retryable() bool { return false }

// TestShardedBitIdenticalAcrossGrids: integer-valued products are the direct
// PB product's bytes on every grid, and real-valued ones whenever the inner
// dimension is whole — only the k-reduce of an inner split regroups float sums.
func TestShardedBitIdenticalAcrossGrids(t *testing.T) {
	eng := newEngine(t)
	direct := func(a, b *pbspgemm.CSR) *pbspgemm.CSR {
		ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
		if err != nil {
			t.Fatalf("reference multiply: %v", err)
		}
		return ref.C
	}
	a, b := intER(200, 6, 1), intER(200, 6, 2)
	ra, rb := pbspgemm.NewER(200, 6, 1), pbspgemm.NewER(200, 6, 2)
	ref, realRef := direct(a, b), direct(ra, rb)

	for _, tc := range []struct {
		name          string
		maxBlockBytes int64
		maxGridDim    int
		inner         int
	}{
		{"1x1x1 fast path", 0, 0, 1},
		{"split grid small blocks", 1, 2, 2},
		{"split grid medium blocks", 64 << 10, 4, 1},
		{"row bands", 16 << 10, 0, 1},
		{"rows and columns", 16 << 10, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Local:         eng,
				Backends:      []Backend{NewEnginePool("local", eng, 1)},
				MaxBlockBytes: tc.maxBlockBytes,
				MaxGridDim:    tc.maxGridDim,
				HedgeDelay:    -1,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := c.Multiply(context.Background(), a, b)
			if err != nil {
				t.Fatalf("sharded multiply: %v", err)
			}
			if tc.maxBlockBytes > 0 && res.Grid.Blocks() == 1 {
				t.Fatalf("grid did not split: %v", res.Grid)
			}
			if res.Grid.Inner != tc.inner {
				t.Fatalf("grid %v, want inner %d", res.Grid, tc.inner)
			}
			sameCSR(t, ref, res.C)
			if res, err = c.Multiply(context.Background(), ra, rb); err != nil {
				t.Fatalf("sharded multiply, real values: %v", err)
			}
			if res.Grid.Inner == 1 {
				sameCSR(t, realRef, res.C)
			}
		})
	}
}

func TestPartitionRespectsMaxBlockBytes(t *testing.T) {
	eng := newEngine(t)
	c, err := New(Config{Local: eng, Backends: []Backend{NewEnginePool("local", eng, 1)}, MaxBlockBytes: 32 << 10, MaxGridDim: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := intER(512, 8, 3)
	b := intER(512, 8, 4)
	gp, err := c.partition(context.Background(), a, b)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if gp.Grid.Blocks() == 1 {
		t.Fatalf("expected a split grid, got %v", gp.Grid)
	}
	if gp.MaxFootprintBytes > 32<<10 {
		// The grid may cap out at MaxGridDim without fitting; only fail when
		// growth stopped early.
		if gp.Grid.Rows < 8 && gp.Grid.Cols < 8 && gp.Grid.Inner < 8 {
			t.Fatalf("grid %v stopped growing at footprint %d > budget", gp.Grid, gp.MaxFootprintBytes)
		}
	}
}

func TestRetryThenSuccess(t *testing.T) {
	eng := newEngine(t)
	be := &stubBackend{name: "flaky", eng: eng, fn: func(call int, _ context.Context) error {
		if call == 1 {
			return fmt.Errorf("connection reset")
		}
		return nil
	}}
	c, err := New(Config{
		Local:          eng,
		Backends:       []Backend{be},
		HedgeDelay:     -1,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := intER(64, 4, 5), intER(64, 4, 6)
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", res.Retries)
	}
	if res.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d, want 0", res.Fallbacks)
	}
	if be.callCount() != 2 {
		t.Fatalf("backend calls = %d, want 2", be.callCount())
	}
	ref, _ := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	sameCSR(t, ref.C, res.C)
}

func TestPermanentErrorSkipsRetriesFallsBack(t *testing.T) {
	eng := newEngine(t)
	be := &stubBackend{name: "broken", eng: eng, fn: func(int, context.Context) error {
		return &permanentError{msg: "bad request"}
	}}
	c, err := New(Config{Local: eng, Backends: []Backend{be}, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := intER(64, 4, 7), intER(64, 4, 8)
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if be.callCount() != 1 {
		t.Fatalf("backend calls = %d, want 1 (permanent errors must not retry)", be.callCount())
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", res.Fallbacks)
	}
	ref, _ := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	sameCSR(t, ref.C, res.C)
}

func TestFallbackAfterExhaustedAttempts(t *testing.T) {
	eng := newEngine(t)
	be := &stubBackend{name: "down", eng: eng, fn: func(int, context.Context) error {
		return fmt.Errorf("dial tcp: connection refused")
	}}
	c, err := New(Config{
		Local:          eng,
		Backends:       []Backend{be},
		HedgeDelay:     -1,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := intER(64, 4, 9), intER(64, 4, 10)
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", res.Fallbacks)
	}
	ref, _ := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	sameCSR(t, ref.C, res.C)
}

func TestHedgeWinsOverStraggler(t *testing.T) {
	eng := newEngine(t)
	release := make(chan struct{})
	defer close(release)
	slow := &stubBackend{name: "slow", eng: eng, fn: func(_ int, ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return fmt.Errorf("released late")
		}
	}}
	fast := &stubBackend{name: "fast", eng: eng}
	// The round-robin cursor starts at 0, so the first pick lands on index
	// 1: put the straggler there and the hedge re-dispatch finds "fast".
	c, err := New(Config{
		Local:      eng,
		Backends:   []Backend{fast, slow},
		HedgeDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := intER(64, 4, 11), intER(64, 4, 12)
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if res.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1", res.Hedges)
	}
	if slow.callCount() != 1 || fast.callCount() != 1 {
		t.Fatalf("calls slow=%d fast=%d, want 1/1", slow.callCount(), fast.callCount())
	}
	ref, _ := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	sameCSR(t, ref.C, res.C)
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	eng := newEngine(t)
	var healthy bool
	var mu sync.Mutex
	be := &stubBackend{name: "flappy", eng: eng}
	be.fn = func(int, context.Context) error {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if !ok {
			return fmt.Errorf("503 service unavailable")
		}
		return nil
	}

	now := time.Now()
	var nowMu sync.Mutex
	c, err := New(Config{
		Local:            eng,
		Backends:         []Backend{be},
		HedgeDelay:       -1,
		MaxAttempts:      3,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.now = func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}

	a, b := intER(64, 4, 13), intER(64, 4, 14)

	// Unhealthy: 2 failures trip the breaker (threshold 2), the remaining
	// attempt finds no live backend and the product lands on the fallback.
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply while down: %v", err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", res.Fallbacks)
	}
	if got := c.Status().Peers["flappy"]; got.State != "open" {
		t.Fatalf("breaker state = %q, want open", got.State)
	}
	calls := be.callCount()

	// Still open, cooldown not elapsed: the backend must not be touched.
	if _, err := c.Multiply(context.Background(), a, b); err != nil {
		t.Fatalf("Multiply while open: %v", err)
	}
	if be.callCount() != calls {
		t.Fatalf("backend called while breaker open (%d → %d)", calls, be.callCount())
	}

	// Cooldown elapses, backend healthy again: half-open probe admits one
	// trial, it succeeds, breaker closes.
	mu.Lock()
	healthy = true
	mu.Unlock()
	nowMu.Lock()
	now = now.Add(2 * time.Minute)
	nowMu.Unlock()
	res, err = c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply after recovery: %v", err)
	}
	if res.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d after recovery, want 0", res.Fallbacks)
	}
	if got := c.Status().Peers["flappy"]; got.State != "closed" {
		t.Fatalf("breaker state = %q after recovery, want closed", got.State)
	}
}

func TestProbeFailureKeepsBreakerOpen(t *testing.T) {
	eng := newEngine(t)
	be := &stubBackend{name: "dark", eng: eng, probeErr: fmt.Errorf("unreachable")}
	be.fn = func(int, context.Context) error { return fmt.Errorf("dial timeout") }
	c, err := New(Config{
		Local:            eng,
		Backends:         []Backend{be},
		HedgeDelay:       -1,
		MaxAttempts:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  0, // immediately eligible for half-open
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// BreakerCooldown 0 would be replaced by the default; force it.
	c.cfg.BreakerCooldown = 0
	for i := range c.breakers {
		c.breakers[i].cooldown = 0
	}
	a, b := intER(64, 4, 15), intER(64, 4, 16)
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", res.Fallbacks)
	}
	// The dark peer must be hit once (the trip) and then only probed —
	// Probe failures burn a health check, not a block attempt.
	if be.callCount() != 1 {
		t.Fatalf("backend Multiply calls = %d, want 1", be.callCount())
	}
}

func TestCancellationPropagates(t *testing.T) {
	eng := newEngine(t)
	started := make(chan struct{}, 16)
	be := &stubBackend{name: "hang", eng: eng, fn: func(_ int, ctx context.Context) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}}
	c, err := New(Config{Local: eng, Backends: []Backend{be}, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	a, b := intER(64, 4, 17), intER(64, 4, 18)
	go func() {
		_, err := c.Multiply(ctx, a, b)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Multiply error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Multiply did not return after cancellation")
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	eng := newEngine(t)
	flaky := &stubBackend{name: "flaky", eng: eng, fn: func(call int, _ context.Context) error {
		if call%3 == 1 {
			return fmt.Errorf("transient")
		}
		return nil
	}}
	c, err := New(Config{
		Local:          eng,
		Backends:       []Backend{flaky, NewEnginePool("pool", eng, 2)},
		MaxBlockBytes:  8 << 10,
		MaxGridDim:     2,
		HedgeDelay:     5 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := intER(128, 4, 19), intER(128, 4, 20)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := c.Multiply(context.Background(), a, b); err != nil {
			t.Fatalf("Multiply #%d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d (leak)", before, runtime.NumGoroutine())
}

func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	eng := newEngine(t)
	c, err := New(Config{Local: eng, RetryBaseDelay: time.Microsecond, RetryMaxDelay: time.Microsecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	floor := 30 * time.Millisecond
	t0 := time.Now()
	if err := c.backoff(context.Background(), 1, &retryAfterError{d: floor}); err != nil {
		t.Fatalf("backoff: %v", err)
	}
	if got := time.Since(t0); got < floor-5*time.Millisecond {
		t.Fatalf("backoff slept %v, want >= %v (Retry-After floor)", got, floor)
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	eng := newEngine(t)
	c, err := New(Config{Local: eng, RetryBaseDelay: 10 * time.Millisecond, RetryMaxDelay: 80 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Draw the jitter directly: the delay before attempt n is uniform in
	// [0, min(max, base<<(n-1))].
	for n := 1; n <= 6; n++ {
		ceil := c.cfg.RetryBaseDelay << (n - 1)
		if ceil > c.cfg.RetryMaxDelay || ceil <= 0 {
			ceil = c.cfg.RetryMaxDelay
		}
		for i := 0; i < 100; i++ {
			d := time.Duration(c.rand() % uint64(ceil+1))
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: jitter %v outside [0, %v]", n, d, ceil)
			}
		}
	}
}

type retryAfterError struct{ d time.Duration }

func (e *retryAfterError) Error() string             { return "429 too many requests" }
func (e *retryAfterError) Retryable() bool           { return true }
func (e *retryAfterError) RetryAfter() time.Duration { return e.d }

func TestHedgeDelayTracksP99(t *testing.T) {
	eng := newEngine(t)
	c, err := New(Config{Local: eng, HedgeDelay: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.hedgeDelay(); got != 250*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want config default", got)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		c.observe(20 * time.Millisecond)
	}
	got := c.hedgeDelay()
	if got < time.Millisecond || got > 25*time.Millisecond {
		t.Fatalf("warm hedge delay = %v, want ~20ms p99", got)
	}
	// Negative config disables hedging regardless of samples.
	c.cfg.HedgeDelay = -1
	if got := c.hedgeDelay(); got >= 0 {
		t.Fatalf("hedge delay with negative config = %v, want < 0", got)
	}
}
