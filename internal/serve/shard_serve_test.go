package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/shard"
)

// intMatrix is an ER matrix with small integer values.
func intMatrix(n int32, d int, seed uint64) *pbspgemm.CSR {
	m := pbspgemm.NewER(n, d, seed)
	for i := range m.Val {
		m.Val[i] = float64(i%5 + 1)
	}
	return m
}

// --- singleflight: leader cancellation must not poison followers ---

func TestFlightSurvivesLeaderCancellation(t *testing.T) {
	s := newTestServer(t, nil)
	a := intMatrix(32, 3, 1)
	b := intMatrix(32, 3, 2)
	ida := uploadText(t, s, a)
	idb := uploadText(t, s, b)
	sp, status, err := s.resolveSpec(multiplyRequest{A: ida, B: idb})
	if err != nil {
		t.Fatalf("resolveSpec: status %d err %v", status, err)
	}

	gate := make(chan struct{})
	started := make(chan struct{})
	var startedOnce atomic.Bool
	real := s.execute
	s.execute = func(ctx context.Context, spec *productSpec) (*Product, error) {
		if startedOnce.CompareAndSwap(false, true) {
			close(started)
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, spec)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.product(leaderCtx, sp)
		leaderErr <- err
	}()
	<-started

	followerRes := make(chan error, 1)
	var followerProduct atomic.Pointer[Product]
	go func() {
		p, via, err := s.product(context.Background(), sp)
		if err == nil {
			if via != viaFlight {
				err = errors.New("follower was not coalesced")
			}
			followerProduct.Store(p)
		}
		followerRes <- err
	}()
	// Wait until the follower is attached, then kill the leader.
	deadline := time.Now().Add(5 * time.Second)
	for s.flights.waiting(sp.key()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}

	// The flight must still be running — releasing the gate completes it and
	// the follower gets a real product, not the leader's cancellation.
	close(gate)
	select {
	case err := <-followerRes:
		if err != nil {
			t.Fatalf("follower error = %v, want product (leader cancellation leaked into the flight)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never completed")
	}
	if p := followerProduct.Load(); p == nil || p.C == nil {
		t.Fatal("follower got a nil product")
	}
}

func TestFlightCancelledWhenAllWaitersLeave(t *testing.T) {
	s := newTestServer(t, nil)
	a := intMatrix(32, 3, 3)
	b := intMatrix(32, 3, 4)
	sp, _, err := s.resolveSpec(multiplyRequest{A: uploadText(t, s, a), B: uploadText(t, s, b)})
	if err != nil {
		t.Fatalf("resolveSpec: %v", err)
	}
	started := make(chan struct{})
	flightDone := make(chan error, 1)
	s.execute = func(ctx context.Context, spec *productSpec) (*Product, error) {
		close(started)
		<-ctx.Done() // the last departing waiter must cancel us
		flightDone <- ctx.Err()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := s.product(ctx, sp)
		res <- err
	}()
	<-started
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v, want context.Canceled", err)
	}
	select {
	case err := <-flightDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight ctx error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight kept running after its last waiter left")
	}
}

// --- admission retryAfter: seeded jitter arithmetic ---

// xorshift replicates Admission.retryAfter's generator step.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func TestRetryAfterSeededArithmetic(t *testing.T) {
	maxWait := 30 * time.Second
	a := NewAdmission(1<<20, 4, maxWait)

	// The jitter state self-seeds from the golden-ratio constant on first
	// use; replicate the walk and pin the exact values.
	x := uint64(0x9e3779b97f4a7c15)
	for _, waiters := range []int{0, 1, 3, 7} {
		a.mu.Lock()
		a.waiters = waiters
		a.mu.Unlock()

		base := time.Duration(1+waiters) * time.Second
		x = xorshift(x)
		want := base
		if span := int64(base) / 2; span > 0 {
			want += time.Duration(int64(x % uint64(span)))
		}
		if want < time.Second {
			want = time.Second
		}
		if want > maxWait {
			want = maxWait
		}

		a.mu.Lock()
		got := a.retryAfter()
		a.mu.Unlock()
		if got != want {
			t.Fatalf("waiters=%d: retryAfter = %v, want %v (seeded walk diverged)", waiters, got, want)
		}
		// The structural bounds the arithmetic must respect: base grows one
		// second per queued waiter, jitter adds at most +50%.
		if got < base {
			t.Fatalf("waiters=%d: retryAfter %v below base %v", waiters, got, base)
		}
		if got > base+base/2 {
			t.Fatalf("waiters=%d: retryAfter %v exceeds base+50%% (%v)", waiters, got, base+base/2)
		}
	}

	// Deep queues clamp at maxWait.
	a.mu.Lock()
	a.waiters = 1000
	got := a.retryAfter()
	a.mu.Unlock()
	if got != maxWait {
		t.Fatalf("deep queue: retryAfter = %v, want clamp at %v", got, maxWait)
	}
}

func TestRetryAfterGrowsWithQueueDepth(t *testing.T) {
	a := NewAdmission(1<<20, 64, time.Hour)
	var prev time.Duration
	for _, waiters := range []int{0, 4, 16, 63} {
		a.mu.Lock()
		a.waiters = waiters
		got := a.retryAfter()
		a.mu.Unlock()
		if got <= prev {
			t.Fatalf("waiters=%d: retryAfter %v did not grow past %v", waiters, got, prev)
		}
		prev = got
	}
}

// --- peer client ---

// newPeerServer boots a full serve.Server behind httptest for peer tests.
func newPeerServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, nil)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

func TestPeerClientMultiplyBitIdentical(t *testing.T) {
	_, hs := newPeerServer(t)
	pc := NewPeerClient(hs.URL, nil)
	a := intMatrix(48, 4, 5)
	b := intMatrix(48, 4, 6)
	got, err := pc.Multiply(context.Background(), a, b, 0)
	if err != nil {
		t.Fatalf("peer multiply: %v", err)
	}
	eng, _ := pbspgemm.NewEngine()
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}
	if got.NNZ() != ref.C.NNZ() {
		t.Fatalf("nnz: got %d want %d", got.NNZ(), ref.C.NNZ())
	}
	for i := range ref.C.Val {
		if got.Val[i] != ref.C.Val[i] || got.ColIdx[i] != ref.C.ColIdx[i] {
			t.Fatalf("entry %d differs: got (%d,%v) want (%d,%v)",
				i, got.ColIdx[i], got.Val[i], ref.C.ColIdx[i], ref.C.Val[i])
		}
	}
}

func TestPeerClientUploadDedup(t *testing.T) {
	var uploads atomic.Int64
	s := newTestServer(t, nil)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/matrices" {
			uploads.Add(1)
		}
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	pc := NewPeerClient(hs.URL, nil)
	a := intMatrix(32, 3, 7)
	b := intMatrix(32, 3, 8)
	for i := 0; i < 3; i++ {
		if _, err := pc.Multiply(context.Background(), a, b, 0); err != nil {
			t.Fatalf("multiply #%d: %v", i, err)
		}
	}
	if got := uploads.Load(); got != 2 {
		t.Fatalf("uploads = %d, want 2 (one per matrix, dedup across calls)", got)
	}
}

// TestPeerClientForgetsCutBlocks: every sharded product cuts fresh block
// objects, so the ids a PeerClient keeps for them can never hit again; the
// coordinator has it drop them when the product returns, and a long-lived
// client then holds the inputs handed over whole — here B, which is what the
// next product repeats — and nothing else.
func TestPeerClientForgetsCutBlocks(t *testing.T) {
	var uploads atomic.Int64
	s := newTestServer(t, nil)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/matrices" {
			uploads.Add(1)
		}
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	pc := NewPeerClient(hs.URL, nil)
	eng, _ := pbspgemm.NewEngine()
	// Two backends on one client: two row bands, both on the peer.
	coord, err := shard.New(shard.Config{Local: eng, Backends: []shard.Backend{pc, pc}, MaxBlockBytes: 16 << 10, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	a, b := intMatrix(256, 4, 11), intMatrix(256, 4, 12)
	const products = 5
	var blocks int
	for i := 0; i < products; i++ {
		res, err := coord.Multiply(context.Background(), a, b)
		if err != nil {
			t.Fatalf("product %d: %v", i, err)
		}
		if res.Grid.Rows < 2 || res.Grid.Cols != 1 || res.Grid.Inner != 1 || res.Fallbacks != 0 {
			t.Fatalf("product %d: grid %v, %d fallbacks: want row bands over a whole B, all on the peer", i, res.Grid, res.Fallbacks)
		}
		blocks = res.Blocks
		pc.mu.Lock()
		_, keptB := pc.ids[b]
		kept := len(pc.ids)
		pc.mu.Unlock()
		if kept != 1 || !keptB {
			t.Fatalf("after product %d the client remembers %d matrices (B among them: %v), want B alone", i, kept, keptB)
		}
	}
	if got, want := uploads.Load(), int64(products*blocks+1); got != want {
		t.Fatalf("%d uploads for %d products of %d blocks, want %d: each band once, B once in all", got, products, blocks, want)
	}
}

// TestPeerClientSendsBlockBudget: every block request a coordinator sends to
// a peer carries MaxBlockBytes as its memory_budget_bytes, so the peer's bin
// groups bound the block's working set.
func TestPeerClientSendsBlockBudget(t *testing.T) {
	const budget = 16 << 10
	s := newTestServer(t, nil)
	var mu sync.Mutex
	var budgets []int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/multiply" {
			body, err := io.ReadAll(r.Body)
			var req multiplyRequest
			if err != nil || json.Unmarshal(body, &req) != nil {
				t.Errorf("unreadable multiply request %q (%v)", body, err)
			}
			mu.Lock()
			budgets = append(budgets, req.MemoryBudgetBytes)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	eng, _ := pbspgemm.NewEngine()
	coord, err := shard.New(shard.Config{Local: eng, Backends: []shard.Backend{NewPeerClient(hs.URL, nil)},
		MaxBlockBytes: budget, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	res, err := coord.Multiply(context.Background(), intMatrix(256, 4, 21), intMatrix(256, 4, 22))
	if err != nil || res.Fallbacks != 0 {
		t.Fatalf("sharded product: %d fallbacks (%v)", res.Fallbacks, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != res.Blocks {
		t.Fatalf("%d multiply requests for %d blocks", len(budgets), res.Blocks)
	}
	for i, got := range budgets {
		if got != budget {
			t.Fatalf("request %d carries memory_budget_bytes %d, want %d", i, got, budget)
		}
	}
}

// TestBudgetedBlockNeverReshards: a peer that has peers of its own runs a
// budgeted block itself — shardable refuses a request with a memory budget —
// while an unbudgeted product sent to it is sharded again.
func TestBudgetedBlockNeverReshards(t *testing.T) {
	_, leafHS := newPeerServer(t)
	mid := newTestServer(t, func(c *Config) {
		c.Peers = []string{leafHS.URL}
		c.ShardBlockBytes = 16 << 10
	})
	midHS := httptest.NewServer(mid)
	defer midHS.Close()
	pc := NewPeerClient(midHS.URL, nil)
	eng, _ := pbspgemm.NewEngine()
	// A fresh pair per request: a cached product would run no coordinator.
	for i, tc := range []struct {
		budget   int64
		products int64
	}{{16 << 10, 0}, {0, 1}} {
		a, b := intMatrix(128, 4, uint64(23+2*i)), intMatrix(128, 4, uint64(24+2*i))
		ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := pc.Multiply(context.Background(), a, b, tc.budget)
		if err != nil {
			t.Fatalf("budget %d: %v", tc.budget, err)
		}
		if got.NNZ() != ref.C.NNZ() {
			t.Fatalf("budget %d: nnz %d, want %d", tc.budget, got.NNZ(), ref.C.NNZ())
		}
		for i := range ref.C.Val {
			if got.Val[i] != ref.C.Val[i] || got.ColIdx[i] != ref.C.ColIdx[i] {
				t.Fatalf("budget %d: entry %d differs", tc.budget, i)
			}
		}
		if m := mid.Metrics(); m.Shard == nil || m.Shard.Products != tc.products {
			t.Fatalf("budget %d: the middle peer's coordinator ran %+v, want %d products", tc.budget, m.Shard, tc.products)
		}
	}
}

func TestPeerClientReuploadsAfterEviction(t *testing.T) {
	peer, hs := newPeerServer(t)
	pc := NewPeerClient(hs.URL, nil)
	a := intMatrix(32, 3, 9)
	b := intMatrix(32, 3, 10)
	if _, err := pc.Multiply(context.Background(), a, b, 0); err != nil {
		t.Fatalf("first multiply: %v", err)
	}
	// Simulate a peer restart: its registry forgets everything, so the
	// client's cached ids are stale and the next multiply 404s.
	for _, info := range peer.Registry().List() {
		peer.Registry().Delete(info.ID)
	}
	if _, err := pc.Multiply(context.Background(), a, b, 0); err != nil {
		t.Fatalf("multiply after eviction: %v (client should re-upload on 404)", err)
	}
}

func TestPeerClientClassifiesStatuses(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
		wantRetry  bool
		wantFloor  time.Duration
	}{
		{"shed", http.StatusTooManyRequests, "7", true, 7 * time.Second},
		{"server fault", http.StatusInternalServerError, "", true, 0},
		{"bad request", http.StatusBadRequest, "", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/matrices" {
					_ = json.NewEncoder(w).Encode(uploadResponse{MatrixInfo: MatrixInfo{ID: "x"}})
					return
				}
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "scripted"})
			}))
			defer hs.Close()
			pc := NewPeerClient(hs.URL, nil)
			_, err := pc.Multiply(context.Background(), intMatrix(8, 2, 11), intMatrix(8, 2, 12), 0)
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("error = %v, want *RemoteError", err)
			}
			if re.Status != tc.status {
				t.Fatalf("Status = %d, want %d", re.Status, tc.status)
			}
			if re.Retryable() != tc.wantRetry {
				t.Fatalf("Retryable = %v, want %v", re.Retryable(), tc.wantRetry)
			}
			if re.RetryAfter() != tc.wantFloor {
				t.Fatalf("RetryAfter = %v, want %v", re.RetryAfter(), tc.wantFloor)
			}
		})
	}
}

func TestPeerClientTransportErrorRetryable(t *testing.T) {
	hs := httptest.NewServer(http.NotFoundHandler())
	url := hs.URL
	hs.Close() // connection refused from now on
	pc := NewPeerClient(url, nil)
	_, err := pc.Multiply(context.Background(), intMatrix(8, 2, 13), intMatrix(8, 2, 14), 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if re.Status != 0 || !re.Retryable() {
		t.Fatalf("transport failure: Status=%d Retryable=%v, want 0/true", re.Status, re.Retryable())
	}
}

// --- sharded serving path ---

func TestServerShardedMultiplyViaPeer(t *testing.T) {
	_, peerHS := newPeerServer(t)
	s := newTestServer(t, func(c *Config) {
		c.Peers = []string{peerHS.URL}
		c.ShardBlockBytes = 16 << 10 // force a real grid
		c.ShardLocalWorkers = 2
	})
	a := intMatrix(128, 4, 15)
	b := intMatrix(128, 4, 16)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)

	body, _ := json.Marshal(multiplyRequest{A: ida, B: idb, Output: "binary"})
	req := httptest.NewRequest("POST", "/multiply", bytes.NewReader(body))
	rec := do(s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("multiply: status %d body %s", rec.Code, rec.Body)
	}
	got, err := mmio.ReadBinary(rec.Body)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}

	eng, _ := pbspgemm.NewEngine()
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got.NNZ() != ref.C.NNZ() {
		t.Fatalf("nnz: got %d want %d", got.NNZ(), ref.C.NNZ())
	}
	for i := range ref.C.Val {
		if got.Val[i] != ref.C.Val[i] {
			t.Fatalf("Val[%d]: got %v want %v (sharded result not bit-identical)", i, got.Val[i], ref.C.Val[i])
		}
	}

	// The shard section must appear on /metrics with the product counted.
	m := s.Metrics()
	if m.Shard == nil || m.Shard.Products != 1 {
		t.Fatalf("metrics Shard = %+v, want Products=1", m.Shard)
	}
}

func TestServerShardRouteRespectsOverrides(t *testing.T) {
	_, peerHS := newPeerServer(t)
	s := newTestServer(t, func(c *Config) { c.Peers = []string{peerHS.URL} })
	a := intMatrix(32, 3, 17)
	b := intMatrix(32, 3, 18)
	sp, _, err := s.resolveSpec(multiplyRequest{A: uploadText(t, s, a), B: uploadText(t, s, b)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.shardable(sp) {
		t.Fatal("plain arithmetic product should be shardable")
	}
	for _, req := range []multiplyRequest{
		{A: sp.req.A, B: sp.req.B, Algorithm: "hash"},
		{A: sp.req.A, B: sp.req.B, Semiring: "boolean"},
		{A: sp.req.A, B: sp.req.B, Threads: 2},
		{A: sp.req.A, B: sp.req.B, MemoryBudgetBytes: 1 << 20},
	} {
		nsp, _, err := s.resolveSpec(req)
		if err != nil {
			t.Fatalf("resolveSpec(%+v): %v", req, err)
		}
		if s.shardable(nsp) {
			t.Fatalf("request %+v must bypass the shard route", req)
		}
	}
}

// --- readiness ---

func TestReadyzReportsQueueAndPeers(t *testing.T) {
	_, peerHS := newPeerServer(t)
	s := newTestServer(t, func(c *Config) {
		c.Peers = []string{peerHS.URL}
		c.MaxQueue = 4
		c.DegradedBudgetBytes = 1 << 20
	})
	rec := do(s, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: status %d body %s", rec.Code, rec.Body)
	}
	var resp readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Ready || resp.MaxQueue != 4 || !resp.DegradedMode {
		t.Fatalf("readyz = %+v, want ready, max_queue 4, degraded mode", resp)
	}
	st, ok := resp.Peers[peerHS.URL]
	if !ok {
		t.Fatalf("readyz peers missing %q: %+v", peerHS.URL, resp.Peers)
	}
	if st.State != "closed" {
		t.Fatalf("fresh peer breaker state = %q, want closed", st.State)
	}
	// local pool appears too
	if _, ok := resp.Peers["local"]; !ok {
		t.Fatalf("readyz peers missing local pool: %+v", resp.Peers)
	}
}

func TestReadyzNotReadyWhenQueueFull(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxQueue = 2 })
	s.adm.mu.Lock()
	s.adm.waiters = 2
	s.adm.mu.Unlock()
	rec := do(s, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with full queue: status %d, want 503", rec.Code)
	}
	s.adm.mu.Lock()
	s.adm.waiters = 0
	s.adm.mu.Unlock()
}
