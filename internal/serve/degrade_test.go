package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"pbspgemm"
	"pbspgemm/internal/mmio"
)

// TestServerDegradedTiledRetry is the degradation-ladder acceptance: a
// product whose full-speed footprint exceeds the ceiling, but whose budgeted
// footprint fits, is served degraded — 200, Degraded flagged, the full-speed
// PB product's bytes — instead of shed with 429.
func TestServerDegradedTiledRetry(t *testing.T) {
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := pbspgemm.NewER(256, 8, 1)
	b := pbspgemm.NewER(256, 8, 2)
	const degBudget = 128 << 10

	// Pick the ceiling from the planner itself: exactly the budgeted footprint,
	// strictly under the full-speed one, so the ladder's two rungs separate.
	full, err := eng.Plan(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := eng.Plan(context.Background(), a, b, pbspgemm.WithMemoryBudget(degBudget))
	if err != nil {
		t.Fatal(err)
	}
	if tiled.PredictedFootprintBytes >= full.PredictedFootprintBytes {
		t.Fatalf("tiled footprint %d not below full %d; test inputs need rework",
			tiled.PredictedFootprintBytes, full.PredictedFootprintBytes)
	}
	s, err := NewServer(Config{
		Engine:              eng,
		MemoryCeilingBytes:  tiled.PredictedFootprintBytes,
		DegradedBudgetBytes: degBudget,
	})
	if err != nil {
		t.Fatal(err)
	}

	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb)
	resp, rec := multiplyJSON(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("degradable multiply: status %d body %s", rec.Code, rec.Body)
	}
	if !resp.Degraded {
		t.Fatal("response does not report the degraded (budgeted) run")
	}
	if calls := s.eng.Metrics().Calls; calls != 1 {
		t.Fatalf("engine ran %d multiplies, want 1", calls)
	}
	if m := s.Metrics(); m.Degraded != 1 {
		t.Fatalf("metrics report %d degraded requests, want 1", m.Degraded)
	}

	// The budgeted product is the same product, fetched as binary output.
	rec2 := do(s, httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"output":"binary"}`, ida, idb))))
	if rec2.Code != http.StatusOK {
		t.Fatalf("binary degraded multiply: %d", rec2.Code)
	}
	if rec2.Header().Get("X-Pbspgemm-Degraded") != "true" {
		t.Fatalf("degraded header missing: %v", rec2.Header())
	}
	// Cached under the original (full-speed) key: no second engine run.
	if rec2.Header().Get("X-Pbspgemm-Cached") != "true" {
		t.Fatalf("degraded product not cached under the request key: %v", rec2.Header())
	}
	got, err := mmio.ReadBinary(bytes.NewReader(rec2.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// It is cached under the full-speed key, so it must be the full-speed
	// product bit for bit, real values included.
	fast, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsCSR(fast.C, got) {
		t.Fatal("degraded product differs from the full-speed PB product")
	}
}

// sameBitsCSR reports whether a and b hold the same arrays, values compared by
// their bits.
func sameBitsCSR(a, b *pbspgemm.CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || !slices.Equal(a.RowPtr, b.RowPtr) ||
		!slices.Equal(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestServerDegradationRespectsExplicitBudget: a request that pinned its own
// memory budget is never silently re-planned — if its footprint is
// inadmissible it sheds with 429 even though DegradedBudgetBytes is set.
func TestServerDegradationRespectsExplicitBudget(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MemoryCeilingBytes = 1024
		c.DegradedBudgetBytes = 128 << 10
	})
	a := pbspgemm.NewER(256, 8, 1)
	b := pbspgemm.NewER(256, 8, 2)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	_, rec := multiplyJSON(t, s, fmt.Sprintf(
		`{"a":%q,"b":%q,"memory_budget_bytes":%d}`, ida, idb, int64(1)<<30))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("explicit-budget inadmissible request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if calls := s.eng.Metrics().Calls; calls != 0 {
		t.Fatalf("engine ran %d multiplies despite shed", calls)
	}
}

// TestServerDegradationDisabledSheds: without DegradedBudgetBytes the ladder
// has no middle rung — the footprint shed goes straight to 429.
func TestServerDegradationDisabledSheds(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MemoryCeilingBytes = 1024 })
	a := pbspgemm.NewER(256, 8, 1)
	b := pbspgemm.NewER(256, 8, 2)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	_, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 with degradation disabled", rec.Code)
	}
	if m := s.Metrics(); m.Degraded != 0 {
		t.Fatalf("metrics report %d degraded requests, want 0", m.Degraded)
	}
}

// TestAdmissionRetryAfterJitter pins the backoff spreading: repeated sheds
// get Retry-After values inside [base, 1.5*base] that are not all identical,
// so synchronized clients do not re-arrive in one wave.
func TestAdmissionRetryAfterJitter(t *testing.T) {
	a := NewAdmission(1000, 4, time.Minute)
	seen := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		err := a.Acquire(context.Background(), 2000)
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("acquire %d: %v, want footprint shed", i, err)
		}
		// No waiters: base is 1s, jitter adds up to +50%.
		if shed.RetryAfter < time.Second || shed.RetryAfter > 1500*time.Millisecond {
			t.Fatalf("RetryAfter %v outside [1s, 1.5s]", shed.RetryAfter)
		}
		seen[shed.RetryAfter] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 sheds produced %d distinct Retry-After values; jitter missing", len(seen))
	}
}

// TestAdmissionQueueTimeoutSentinel pins the error taxonomy: a queue-wait
// shed matches both ErrShed and ErrQueueTimeout; a footprint shed matches
// only ErrShed; a client cancellation matches neither (it is the ctx error).
func TestAdmissionQueueTimeoutSentinel(t *testing.T) {
	a := NewAdmission(1000, 4, 20*time.Millisecond)
	if err := a.Acquire(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	defer a.Release(1000)

	timeoutErr := a.Acquire(context.Background(), 100)
	if !errors.Is(timeoutErr, ErrQueueTimeout) || !errors.Is(timeoutErr, ErrShed) {
		t.Fatalf("queue-wait shed %v must match ErrQueueTimeout and ErrShed", timeoutErr)
	}

	footprintErr := a.Acquire(context.Background(), 5000)
	if !errors.Is(footprintErr, ErrShed) || errors.Is(footprintErr, ErrQueueTimeout) {
		t.Fatalf("footprint shed %v must match ErrShed only", footprintErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, 100) }()
	waitFor(t, func() bool { return a.Stats().Waiting == 1 }, "waiter to queue")
	cancel()
	cancelErr := <-done
	if !errors.Is(cancelErr, context.Canceled) {
		t.Fatalf("client cancellation surfaced as %v", cancelErr)
	}
	if errors.Is(cancelErr, ErrShed) || errors.Is(cancelErr, ErrQueueTimeout) {
		t.Fatalf("client cancellation %v must not look like a shed", cancelErr)
	}
}
