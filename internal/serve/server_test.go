package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/mmio"
)

// newTestServer builds a server over a fresh engine.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: eng}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the handler without sockets.
func do(s *Server, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// uploadText posts m as Matrix Market text and returns its registry id.
func uploadText(t *testing.T, s *Server, m *pbspgemm.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pbspgemm.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	rec := do(s, httptest.NewRequest("POST", "/matrices", &buf))
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d body %s", rec.Code, rec.Body)
	}
	var resp uploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// multiplyJSON posts a multiply request and decodes the metadata reply.
func multiplyJSON(t *testing.T, s *Server, body string) (multiplyResponse, *httptest.ResponseRecorder) {
	t.Helper()
	rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body)))
	var resp multiplyResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad multiply body %s: %v", rec.Body, err)
		}
	}
	return resp, rec
}

func TestServerUploadDedupAcrossFormats(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(128, 4, 1)
	idText := uploadText(t, s, a)

	var bin bytes.Buffer
	if err := mmio.WriteBinary(&bin, a); err != nil {
		t.Fatal(err)
	}
	rec := do(s, httptest.NewRequest("POST", "/matrices", &bin))
	if rec.Code != http.StatusOK {
		t.Fatalf("binary re-upload: status %d body %s", rec.Code, rec.Body)
	}
	var resp uploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Existed || resp.ID != idText {
		t.Fatalf("binary upload of same content: existed=%v id=%s want %s", resp.Existed, resp.ID, idText)
	}
	if st := s.Registry().Stats(); st.Matrices != 1 {
		t.Fatalf("registry holds %d matrices, want 1 (dedup)", st.Matrices)
	}

	// Metadata and listing endpoints see it.
	if rec := do(s, httptest.NewRequest("GET", "/matrices/"+idText, nil)); rec.Code != http.StatusOK {
		t.Fatalf("GET matrix: %d", rec.Code)
	}
	if rec := do(s, httptest.NewRequest("GET", "/matrices/nope", nil)); rec.Code != http.StatusNotFound {
		t.Fatalf("GET missing matrix: %d", rec.Code)
	}
	if rec := do(s, httptest.NewRequest("DELETE", "/matrices/"+idText, nil)); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", rec.Code)
	}
}

func TestServerUploadErrors(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxUploadBytes = 512 })
	if rec := do(s, httptest.NewRequest("POST", "/matrices", strings.NewReader("not a matrix"))); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d", rec.Code)
	}
	// A matrix whose text form exceeds the upload limit is rejected with 413.
	var buf bytes.Buffer
	if err := pbspgemm.WriteMatrixMarket(&buf, pbspgemm.NewER(256, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 512 {
		t.Fatalf("test matrix too small (%d bytes) to exceed the limit", buf.Len())
	}
	if rec := do(s, httptest.NewRequest("POST", "/matrices", &buf)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d body %s", rec.Code, rec.Body)
	}
}

func TestServerRegistryFullUpload(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RegistryBudgetBytes = 1 })
	var buf bytes.Buffer
	if err := pbspgemm.WriteMatrixMarket(&buf, pbspgemm.NewER(64, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if rec := do(s, httptest.NewRequest("POST", "/matrices", &buf)); rec.Code != http.StatusInsufficientStorage {
		t.Fatalf("upload into full registry: %d", rec.Code)
	}
}

// TestServerRepeatServedFromCache is the headline cache acceptance: the
// second identical request returns the product without the Engine running
// again (its multiply counter is unchanged), and the result round-trips
// bit-identically through the binary output.
// TestServerBudgetSharesCacheEntry: a memory budget never changes a
// product's bytes, so a budgeted request is served from the entry the same
// request without one made.
func TestServerBudgetSharesCacheEntry(t *testing.T) {
	s := newTestServer(t, nil)
	ida, idb := uploadText(t, s, pbspgemm.NewER(256, 4, 1)), uploadText(t, s, pbspgemm.NewER(256, 4, 2))
	body := fmt.Sprintf(`{"a":%q,"b":%q`, ida, idb)
	resp, rec := multiplyJSON(t, s, body+"}")
	if rec.Code != http.StatusOK || resp.Cached {
		t.Fatalf("unbudgeted: status %d cached=%v", rec.Code, resp.Cached)
	}
	resp2, rec2 := multiplyJSON(t, s, body+`,"memory_budget_bytes":4096}`)
	if rec2.Code != http.StatusOK || !resp2.Cached {
		t.Fatalf("budgeted repeat: status %d cached=%v, want a cache hit", rec2.Code, resp2.Cached)
	}
	if calls := s.eng.Metrics().Calls; calls != 1 {
		t.Fatalf("engine ran %d multiplies, want 1", calls)
	}
}

// TestServerThreadsShareCacheEntry: a thread count never changes a product's
// bytes, so two requests that differ only in threads run the kernel once,
// under every algorithm.
func TestServerThreadsShareCacheEntry(t *testing.T) {
	s := newTestServer(t, nil)
	ida, idb := uploadText(t, s, pbspgemm.NewER(256, 4, 1)), uploadText(t, s, pbspgemm.NewER(256, 4, 2))
	for i, alg := range []string{"auto", "pb", "spa", "heap", "hash", "hashvec"} {
		body := fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":%q`, ida, idb, alg)
		resp, rec := multiplyJSON(t, s, body+`,"threads":1}`)
		if rec.Code != http.StatusOK || resp.Cached {
			t.Fatalf("%s, 1 thread: status %d cached=%v", alg, rec.Code, resp.Cached)
		}
		resp2, rec2 := multiplyJSON(t, s, body+`,"threads":2}`)
		if rec2.Code != http.StatusOK || !resp2.Cached {
			t.Fatalf("%s, 2 threads: status %d cached=%v, want a cache hit", alg, rec2.Code, resp2.Cached)
		}
		if calls := s.eng.Metrics().Calls; calls != int64(i+1) {
			t.Fatalf("%s: engine ran %d multiplies, want %d", alg, calls, i+1)
		}
	}
}

func TestServerRepeatServedFromCache(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(256, 4, 1)
	b := pbspgemm.NewER(256, 4, 2)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb)

	resp, rec := multiplyJSON(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("multiply: %d body %s", rec.Code, rec.Body)
	}
	if resp.Cached || resp.Coalesced {
		t.Fatalf("first request reported cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
	}
	if calls := s.eng.Metrics().Calls; calls != 1 {
		t.Fatalf("engine ran %d multiplies, want 1", calls)
	}

	resp2, rec2 := multiplyJSON(t, s, body)
	if rec2.Code != http.StatusOK || !resp2.Cached {
		t.Fatalf("repeat: status %d cached=%v", rec2.Code, resp2.Cached)
	}
	if calls := s.eng.Metrics().Calls; calls != 1 {
		t.Fatalf("engine multiply counter moved to %d on a cache hit", calls)
	}
	if resp2.NNZ != resp.NNZ || resp2.Flops != resp.Flops {
		t.Fatalf("cached metadata drifted: %+v vs %+v", resp2, resp)
	}

	// The binary output of the cached product matches the reference product.
	rec3 := do(s, httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"output":"binary"}`, ida, idb))))
	if rec3.Code != http.StatusOK {
		t.Fatalf("binary output: %d", rec3.Code)
	}
	if rec3.Header().Get("X-Pbspgemm-Cached") != "true" {
		t.Fatalf("binary output not served from cache: %v", rec3.Header())
	}
	got, err := mmio.ReadBinary(bytes.NewReader(rec3.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !pbspgemm.EqualWithin(pbspgemm.Reference(a, b), got, 1e-9) {
		t.Fatal("served product differs from reference")
	}

	// Different options are a different cache identity.
	if respT, recT := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"pb"}`, ida, idb)); recT.Code != http.StatusOK || respT.Cached {
		t.Fatalf("distinct options served from cache: status %d cached=%v", recT.Code, respT.Cached)
	}
	if calls := s.eng.Metrics().Calls; calls != 2 {
		t.Fatalf("engine calls = %d after distinct-option request, want 2", calls)
	}
	if st := s.Cache().Stats(); st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestServerCoalescesConcurrentIdenticalRequests gates the execution hook so
// N identical requests demonstrably pile onto one in-flight multiply: the
// engine runs exactly once and N-1 responses report coalesced.
func TestServerCoalescesConcurrentIdenticalRequests(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(128, 4, 1)
	b := pbspgemm.NewER(128, 4, 2)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb)

	gate := make(chan struct{})
	var executes atomic.Int64
	inner := s.execute
	s.execute = func(ctx context.Context, sp *productSpec) (*Product, error) {
		executes.Add(1)
		<-gate
		return inner(ctx, sp)
	}
	sp, _, err := s.resolveSpec(multiplyRequest{A: ida, B: idb})
	if err != nil {
		t.Fatal(err)
	}
	key := sp.key()

	const n = 8
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	results := make([]multiplyResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body)))
			codes[i] = rec.Code
			_ = json.Unmarshal(rec.Body.Bytes(), &results[i])
		}(i)
	}
	// Deterministic coalescing: wait until all n-1 followers joined the
	// leader's flight before releasing it.
	waitFor(t, func() bool { return s.flights.waiting(key) == n-1 }, "followers to join flight")
	close(gate)
	wg.Wait()

	if got := executes.Load(); got != 1 {
		t.Fatalf("execute ran %d times, want exactly 1", got)
	}
	if calls := s.eng.Metrics().Calls; calls != 1 {
		t.Fatalf("engine ran %d multiplies, want exactly 1", calls)
	}
	var leaders, followers int
	for i := range results {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if results[i].Coalesced {
			followers++
		} else {
			leaders++
		}
		if results[i].NNZ != results[0].NNZ {
			t.Fatalf("request %d got a different product", i)
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Fatalf("leaders=%d followers=%d, want 1 and %d", leaders, followers, n-1)
	}
	// Coalescing is observable in the metrics snapshot too.
	m := s.Metrics()
	if m.Coalesced != n-1 {
		t.Fatalf("metrics report %d coalesced requests, want %d", m.Coalesced, n-1)
	}
	if def := m.Tenants["default"]; def.Coalesced != n-1 || def.Multiplies != n {
		t.Fatalf("tenant counters: %+v", def)
	}
	// No worker goroutine outlives its request.
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}, "goroutines to drain")
}

// TestServerShedsOverCeiling is the admission acceptance: a product whose
// planner-predicted footprint exceeds the ceiling is refused with 429 +
// Retry-After before the Engine allocates (or runs) anything.
func TestServerShedsOverCeiling(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MemoryCeilingBytes = 1024 })
	a := pbspgemm.NewER(256, 8, 1)
	b := pbspgemm.NewER(256, 8, 2)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)

	// Sanity: the planner predicts far more than the ceiling for this product.
	plan, err := s.eng.Plan(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedFootprintBytes <= 1024 {
		t.Fatalf("test product too small: predicted %d bytes", plan.PredictedFootprintBytes)
	}

	_, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d body %s, want 429", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if calls := s.eng.Metrics().Calls; calls != 0 {
		t.Fatalf("engine dispatched %d multiplies despite shed", calls)
	}
	m := s.Metrics()
	if m.Admission.Shed != 1 || m.Tenants["default"].Shed != 1 {
		t.Fatalf("shed counters: admission %+v tenant %+v", m.Admission, m.Tenants["default"])
	}

	// The dry-run endpoint reports the same verdict without side effects.
	rec2 := do(s, httptest.NewRequest("POST", "/plan",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb))))
	if rec2.Code != http.StatusOK {
		t.Fatalf("plan: %d", rec2.Code)
	}
	var pr planResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Admissible {
		t.Fatalf("plan reports admissible for an over-ceiling product: %+v", pr)
	}
	if pr.PredictedFootprintBytes != plan.PredictedFootprintBytes {
		t.Fatalf("plan endpoint footprint %d != Engine.Plan %d",
			pr.PredictedFootprintBytes, plan.PredictedFootprintBytes)
	}
}

// TestServerAdmitsMaskedUnderExpansionCeiling: admission prices a plain mask=
// request as the mask-shaped row kernel it runs, so a ceiling that sheds the
// unmasked product — and would have shed the masked one on flops × tupleBytes
// — admits it at full speed (not degraded), under a truthful algorithm name.
func TestServerAdmitsMaskedUnderExpansionCeiling(t *testing.T) {
	a := pbspgemm.NewRMAT(9, 8, 1)
	mask := pbspgemm.NewER(512, 2, 2)
	s := newTestServer(t, func(c *Config) { c.MemoryCeilingBytes = 512 << 10 })
	ida, idm := uploadText(t, s, a), uploadText(t, s, mask)

	if _, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q}`, ida, ida)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("unmasked product: status %d, want the ceiling to shed it", rec.Code)
	}
	resp, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q,"mask":%q}`, ida, ida, idm))
	if rec.Code != http.StatusOK {
		t.Fatalf("masked product: status %d body %s", rec.Code, rec.Body)
	}
	if resp.Degraded || resp.Algorithm != "MaskedRows" || resp.NNZ > mask.NNZ() {
		t.Fatalf("masked reply %+v: want a full-speed MaskedRows product inside the mask", resp)
	}
}

func TestServerSemiringsAndMask(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(128, 4, 3)
	b := pbspgemm.NewER(128, 4, 4)
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	ref := pbspgemm.Reference(a, b)

	fetch := func(body string) *pbspgemm.CSR {
		t.Helper()
		rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("multiply %s: %d body %s", body, rec.Code, rec.Body)
		}
		m, err := mmio.ReadBinary(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Boolean: same structure as the arithmetic product, all values 1.
	boolC := fetch(fmt.Sprintf(`{"a":%q,"b":%q,"semiring":"boolean","output":"binary"}`, ida, idb))
	if boolC.NNZ() != ref.NNZ() {
		t.Fatalf("boolean nnz %d != reference %d", boolC.NNZ(), ref.NNZ())
	}
	for i, v := range boolC.Val {
		if v != 1 {
			t.Fatalf("boolean value[%d] = %v, want 1", i, v)
		}
	}

	// Masked arithmetic: equals the reference product filtered by the mask.
	mask := pbspgemm.NewER(128, 3, 9)
	idm := uploadText(t, s, mask)
	maskedC := fetch(fmt.Sprintf(`{"a":%q,"b":%q,"mask":%q,"output":"binary"}`, ida, idb, idm))
	want := maskFilter(ref, mask, false)
	if !pbspgemm.EqualWithin(want, maskedC, 1e-9) {
		t.Fatal("masked product differs from filtered reference")
	}
	complC := fetch(fmt.Sprintf(`{"a":%q,"b":%q,"mask":%q,"complement":true,"output":"binary"}`, ida, idb, idm))
	if !pbspgemm.EqualWithin(maskFilter(ref, mask, true), complC, 1e-9) {
		t.Fatal("complement-masked product differs from filtered reference")
	}
	// The complement-masked product ran the kernel /plan chose for it.
	complBody := fmt.Sprintf(`{"a":%q,"b":%q,"mask":%q,"complement":true}`, ida, idb, idm)
	rec := do(s, httptest.NewRequest("POST", "/plan", strings.NewReader(complBody)))
	var pr planResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("plan: %d %v", rec.Code, err)
	}
	if resp, _ := multiplyJSON(t, s, complBody); resp.Algorithm != pr.Chosen {
		t.Fatalf("complement-masked product ran %q, /plan chose %q", resp.Algorithm, pr.Chosen)
	}

	// Min-plus on a hand-built instance: D2 = one relaxation of D over (min,+).
	d := &pbspgemm.CSR{
		NumRows: 2, NumCols: 2,
		RowPtr: []int64{0, 2, 3},
		ColIdx: []int32{0, 1, 1},
		Val:    []float64{0, 5, 1},
	}
	idd := uploadText(t, s, d)
	mp := fetch(fmt.Sprintf(`{"a":%q,"b":%q,"semiring":"minplus","output":"binary"}`, idd, idd))
	// Row 0: min(0+0, ...)=0 to col0; col1: min(0+5, 5+1)=5. Row 1: 1+1=2.
	wantMP := []float64{0, 5, 2}
	if mp.NNZ() != 3 {
		t.Fatalf("minplus nnz = %d, want 3", mp.NNZ())
	}
	for i, v := range mp.Val {
		if v != wantMP[i] {
			t.Fatalf("minplus val[%d] = %v, want %v", i, v, wantMP[i])
		}
	}

	// Unknown algebra and missing ids are client errors.
	if _, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q,"semiring":"nope"}`, ida, idb)); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown semiring: %d", rec.Code)
	}
	if _, rec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":"missing"}`, ida)); rec.Code != http.StatusNotFound {
		t.Fatalf("missing matrix: %d", rec.Code)
	}
}

// TestServerSemiringAlgorithms: a semiring request runs the algorithm it names
// — pb the pipeline, spa the row kernel, the same bytes either way, and the
// reply says which — and one naming a column kernel with no semiring or masked
// form is a client error, not a silent PB run.
func TestServerSemiringAlgorithms(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(128, 4, 3)
	ida := uploadText(t, s, a)
	for _, sr := range []string{"boolean", "minplus", "maxtimes"} {
		var bodies [2][]byte
		for i, alg := range []string{"pb", "spa"} {
			body := fmt.Sprintf(`{"a":%q,"b":%q,"semiring":%q,"algorithm":%q,"output":"binary"}`, ida, ida, sr, alg)
			rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d body %s", body, rec.Code, rec.Body)
			}
			want := map[string]string{"pb": "PB-SpGEMM(", "spa": "SPASpGEMM("}[alg] + sr + ")"
			if got := rec.Header().Get("X-Pbspgemm-Algorithm"); got != want {
				t.Fatalf("%s ran %q, want %q", body, got, want)
			}
			bodies[i] = rec.Body.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: the row kernel's product is not PB's bytes", sr)
		}
	}
	for _, alg := range []string{"heap", "hash", "hashvec", "esc"} {
		for _, extra := range []string{`"semiring":"minplus"`, `"semiring":"boolean"`, fmt.Sprintf(`"mask":%q`, ida)} {
			body := fmt.Sprintf(`{"a":%q,"b":%q,%s,"algorithm":%q}`, ida, ida, extra, alg)
			if _, rec := multiplyJSON(t, s, body); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: %d, want 400", body, rec.Code)
			}
		}
	}
}

// maskFilter keeps ref's entries where mask stores one (or, complemented,
// where it does not) — the reference semantics of C⟨M⟩.
func maskFilter(ref, mask *pbspgemm.CSR, complement bool) *pbspgemm.CSR {
	out := &pbspgemm.CSR{NumRows: ref.NumRows, NumCols: ref.NumCols, RowPtr: make([]int64, ref.NumRows+1)}
	for i := int32(0); i < ref.NumRows; i++ {
		stored := make(map[int32]bool)
		for p := mask.RowPtr[i]; p < mask.RowPtr[i+1]; p++ {
			stored[mask.ColIdx[p]] = true
		}
		for p := ref.RowPtr[i]; p < ref.RowPtr[i+1]; p++ {
			if stored[ref.ColIdx[p]] != complement {
				out.ColIdx = append(out.ColIdx, ref.ColIdx[p])
				out.Val = append(out.Val, ref.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

func TestServerMetricsAndLatency(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(64, 3, 1)
	ida := uploadText(t, s, a)
	req := httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q}`, ida, ida)))
	req.Header.Set("X-Tenant", "acme")
	if rec := do(s, req); rec.Code != http.StatusOK {
		t.Fatalf("multiply: %d", rec.Code)
	}

	rec := do(s, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Engine.Calls != 1 || m.Engine.Flops == 0 {
		t.Fatalf("engine snapshot: %+v", m.Engine)
	}
	acme, ok := m.Tenants["acme"]
	if !ok || acme.Multiplies != 1 || acme.Flops == 0 {
		t.Fatalf("tenant acme: %+v (tenants %v)", acme, m.Tenants)
	}
	lat, ok := m.Latency["POST /multiply"]
	if !ok || lat.Count != 1 || lat.P50Ms <= 0 || lat.P99Ms < lat.P50Ms {
		t.Fatalf("latency: %+v", m.Latency)
	}
	if _, ok := m.Latency["POST /matrices"]; !ok {
		t.Fatalf("upload latency missing: %v", m.Latency)
	}
	if rec := do(s, httptest.NewRequest("GET", "/healthz", nil)); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}
