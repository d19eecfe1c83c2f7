//go:build faultinject

package serve

// Serve-layer chaos: injected faults must stay contained to the request that
// hit them — the daemon keeps serving every other tenant.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
)

// TestServeKernelPanicContainedPerRequest injects a worker panic into the
// expand phase of tenant A's multiply (pinned to PB: Auto would run this small
// product on the row kernel, which has no expand phase): A gets a 500, tenant B's different
// product succeeds on the same engine right after, and the panic shows up in
// the engine metrics (workspace discarded) — not as a handler panic.
func TestServeKernelPanicContainedPerRequest(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(256, 8, 1)
	b := pbspgemm.NewER(256, 8, 2)
	c := pbspgemm.NewER(256, 8, 3)
	ida, idb, idc := uploadText(t, s, a), uploadText(t, s, b), uploadText(t, s, c)

	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteExpandColumn, Hit: 1, Worker: -1,
		Mode: faultinject.ModePanic})
	reqA := httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"pb"}`, ida, idb)))
	reqA.Header.Set("X-Tenant", "victim")
	rec := do(s, reqA)
	faultinject.Disarm()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked multiply: status %d body %s, want 500", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("500 body does not surface the contained panic: %s", rec.Body)
	}

	// A different tenant's different product is untouched.
	reqB := httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idc)))
	reqB.Header.Set("X-Tenant", "bystander")
	if rec := do(s, reqB); rec.Code != http.StatusOK {
		t.Fatalf("bystander multiply after contained panic: status %d body %s", rec.Code, rec.Body)
	}
	// And so is the victim's own retry of the faulted product.
	retry := httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":"pb"}`, ida, idb)))
	retry.Header.Set("X-Tenant", "victim")
	if rec := do(s, retry); rec.Code != http.StatusOK {
		t.Fatalf("victim retry: status %d body %s", rec.Code, rec.Body)
	}

	m := s.Metrics()
	if m.Engine.Panics != 1 {
		t.Fatalf("engine panics = %d, want 1", m.Engine.Panics)
	}
	if m.HandlerPanics != 0 {
		t.Fatalf("kernel panic leaked to the middleware: handler panics = %d", m.HandlerPanics)
	}
	if v := m.Tenants["victim"]; v.Errors != 1 || v.Multiplies != 1 {
		t.Fatalf("victim counters: %+v", v)
	}
	if by := m.Tenants["bystander"]; by.Multiplies != 1 || by.Errors != 0 {
		t.Fatalf("bystander counters: %+v", by)
	}
}

// TestServeMiddlewareCatchesHandlerPanic injects a panic at the top of the
// multiply handler itself: the recovery middleware answers 500 for that
// request and the server keeps serving.
func TestServeMiddlewareCatchesHandlerPanic(t *testing.T) {
	s := newTestServer(t, nil)
	a := pbspgemm.NewER(64, 3, 1)
	ida := uploadText(t, s, a)
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, ida, ida)

	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteServeHandler, Hit: 1, Worker: -1,
		Mode: faultinject.ModePanic})
	rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body)))
	faultinject.Disarm()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("handler panic: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal panic") {
		t.Fatalf("500 body: %s", rec.Body)
	}
	if m := s.Metrics(); m.HandlerPanics != 1 {
		t.Fatalf("handler panics = %d, want 1", m.HandlerPanics)
	}

	if rec := do(s, httptest.NewRequest("POST", "/multiply", strings.NewReader(body))); rec.Code != http.StatusOK {
		t.Fatalf("multiply after middleware recovery: status %d body %s", rec.Code, rec.Body)
	}
	if rec := do(s, httptest.NewRequest("GET", "/healthz", nil)); rec.Code != http.StatusOK {
		t.Fatalf("healthz after middleware recovery: %d", rec.Code)
	}
}
