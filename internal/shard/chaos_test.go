//go:build faultinject

package shard

// Shard-layer chaos: every injected fault at the new remote sites must end
// in a bit-identical product (retry, hedge, breaker or local fallback
// absorbed it) or a typed error — never a partial or corrupt C.

import (
	"context"
	"errors"
	"testing"
	"time"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
)

// chaosCoordinator builds a coordinator with fast retry timings and a split
// grid so faults land on real multi-block products.
func chaosCoordinator(t *testing.T, eng *pbspgemm.Engine, hedge time.Duration) *Coordinator {
	t.Helper()
	c, err := New(Config{
		Local:          eng,
		Backends:       []Backend{NewEnginePool("p0", eng, 2), NewEnginePool("p1", eng, 2)},
		MaxBlockBytes:  16 << 10,
		MaxGridDim:     2,
		HedgeDelay:     hedge,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosBlockRPCMatrix walks the block-dispatch fault matrix: a single
// failure, a flaky backend (every other dispatch fails), a persistently
// failing site (every dispatch fails, forcing the terminal local fallback),
// and a panic at the dispatch boundary. Every cell must converge to the
// bit-identical product.
func TestChaosBlockRPCMatrix(t *testing.T) {
	eng := newEngine(t)
	a := intER(160, 5, 31)
	b := intER(160, 5, 32)
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name         string
		plan         faultinject.Plan
		wantFallback bool
	}{
		{"single dispatch error", faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: 1, Worker: -1, Mode: faultinject.ModeError}, false},
		{"flaky every other dispatch", faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: 1, Every: 2, Worker: -1, Mode: faultinject.ModeError}, false},
		{"every dispatch fails", faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: 1, Every: 1, Worker: -1, Mode: faultinject.ModeError}, true},
		{"panic at dispatch", faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: 2, Worker: -1, Mode: faultinject.ModePanic}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Arm(tc.plan)
			t.Cleanup(faultinject.Disarm)
			c := chaosCoordinator(t, eng, -1)
			res, err := c.Multiply(context.Background(), a, b)
			if err != nil {
				t.Fatalf("Multiply under %s: %v", tc.name, err)
			}
			sameCSR(t, ref.C, res.C)
			if faultinject.Hits(faultinject.SiteBlockRPC) == 0 {
				t.Fatal("fault site was never reached")
			}
			if tc.wantFallback && res.Fallbacks == 0 {
				t.Fatalf("expected local fallbacks, got %+v", res)
			}
			if !tc.wantFallback && res.Retries == 0 && res.Fallbacks == 0 {
				t.Fatalf("fault did not surface in the ladder counters: %+v", res)
			}
		})
	}
}

// TestChaosSlowBackendHedges injects a persistent straggler at the dispatch
// boundary: with hedging enabled the product completes without waiting out
// every slow attempt, the result is still bit-identical, and the hedge
// counter proves re-dispatch happened.
func TestChaosSlowBackendHedges(t *testing.T) {
	eng := newEngine(t)
	a := intER(128, 4, 33)
	b := intER(128, 4, 34)
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	// Every odd dispatch sleeps 150ms; the hedge fires after 20ms and the
	// re-dispatched attempt (an even occurrence) runs at full speed.
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteBlockRPC, Hit: 1, Every: 2, Worker: -1,
		Mode: faultinject.ModeSleep, SleepNanos: int64(150 * time.Millisecond)})
	t.Cleanup(faultinject.Disarm)
	c := chaosCoordinator(t, eng, 20*time.Millisecond)
	start := time.Now()
	res, err := c.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("Multiply with slow backend: %v", err)
	}
	sameCSR(t, ref.C, res.C)
	if res.Hedges == 0 {
		t.Fatalf("no hedges despite straggling dispatches (elapsed %v)", time.Since(start))
	}
}

// TestChaosReduceFailureIsTypedNeverPartial injects a failure into the
// C(i,j) reduce — after every remote block already succeeded. The product
// must return a typed *ReduceError naming the block and no C at all.
func TestChaosReduceFailureIsTypedNeverPartial(t *testing.T) {
	eng := newEngine(t)
	a := intER(128, 4, 35)
	b := intER(128, 4, 36)
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteReduce, Hit: 1, Worker: -1, Mode: faultinject.ModeError})
	t.Cleanup(faultinject.Disarm)
	c := chaosCoordinator(t, eng, -1)
	res, err := c.Multiply(context.Background(), a, b)
	if err == nil {
		t.Fatalf("Multiply succeeded despite injected reduce failure (res=%+v)", res)
	}
	var re *ReduceError
	if !errors.As(err, &re) {
		t.Fatalf("error = %T %v, want *ReduceError", err, err)
	}
	var fault faultinject.Fault
	if !errors.As(err, &fault) || fault.Site != faultinject.SiteReduce {
		t.Fatalf("ReduceError does not carry the injected fault: %v", err)
	}
	if res != nil {
		t.Fatal("a failed product must not return a partial result")
	}
}

// TestChaosFaultSeedsConverge sweeps single-shot error injections across
// the first N occurrences of the dispatch site: wherever the fault lands,
// the ladder converges to the same bytes.
func TestChaosFaultSeedsConverge(t *testing.T) {
	eng := newEngine(t)
	a := intER(96, 4, 37)
	b := intER(96, 4, 38)
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	for hit := int64(1); hit <= 6; hit++ {
		faultinject.Arm(faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: hit, Worker: -1, Mode: faultinject.ModeError})
		c := chaosCoordinator(t, eng, -1)
		res, err := c.Multiply(context.Background(), a, b)
		faultinject.Disarm()
		if err != nil {
			t.Fatalf("hit=%d: %v", hit, err)
		}
		sameCSR(t, ref.C, res.C)
	}
}

// TestChaosInProcessFallbackKeepsBound fails every dispatch to the in-process
// pool, backend 0: the one block falls to the local fallback, which keeps the
// pool's bound — MaxBlockBytes when FallbackBudgetBytes is unset, the smaller
// of the two when both are set — and returns the direct PB product's bytes.
func TestChaosInProcessFallbackKeepsBound(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	a, b := pbspgemm.NewER(1024, 8, 21), pbspgemm.NewER(1024, 8, 22)
	direct, err := eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ maxBlock, fallback, want int64 }{
		{64 << 10, 0, 64 << 10},
		{64 << 10, 16 << 10, 16 << 10},
		{64 << 10, 1 << 20, 64 << 10},
		{0, 16 << 10, 16 << 10},
		{-1, 0, 0},
	} {
		faultinject.Arm(faultinject.Plan{
			Site: faultinject.SiteBlockRPC, Hit: 1, Every: 1, Worker: 0, Mode: faultinject.ModeError})
		c, err := New(Config{Local: eng, MaxBlockBytes: tc.maxBlock, FallbackBudgetBytes: tc.fallback,
			HedgeDelay: -1, RetryBaseDelay: time.Millisecond, RetryMaxDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Multiply(ctx, a, b)
		faultinject.Disarm()
		if err != nil || res.Blocks != 1 || res.Fallbacks != 1 {
			t.Fatalf("%+v: %+v (%v), want one block that fell back", tc, res, err)
		}
		sameCSR(t, direct.C, res.C)
		if got := c.cfg.FallbackBudgetBytes; got != tc.want {
			t.Fatalf("%+v: the fallback runs under %d bytes", tc, got)
		}
	}
}
