package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/mmio"
)

// claimHeader is a binary-format header claiming rows×cols with nnz entries.
func claimHeader(rows, cols int32, nnz int64) []byte {
	hdr := make([]byte, 20)
	binary.LittleEndian.PutUint32(hdr[0:], 0x50425350)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(cols))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(nnz))
	return hdr
}

// stream hides b's length, as a request body off the network does.
func stream(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }

// TestServerUploadHeaderClaimOverLimit: a 20-byte upload whose header claims
// 50 M entries (600 MB, over the 256 MiB default MaxUploadBytes) is a 413
// before anything is allocated for the claim, and a claim under the limit
// whose body ends early is a 400 naming the truncation.
func TestServerUploadHeaderClaimOverLimit(t *testing.T) {
	s := newTestServer(t, nil)
	req := httptest.NewRequest("POST", "/matrices", stream(claimHeader(1<<20, 1<<20, 50_000_000)))
	var rec *httptest.ResponseRecorder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec = do(s, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized claim: status %d body %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a 20-byte upload allocated %d bytes", got)
	}
	rec = do(s, httptest.NewRequest("POST", "/matrices", stream(claimHeader(1<<10, 1<<10, 1000))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), mmio.ErrTruncated.Error()) {
		t.Fatalf("truncated upload: status %d body %s", rec.Code, rec.Body)
	}
}

// TestHashMatrixAllocsConstant: fingerprinting streams the arrays' own bytes
// into the hash, so it allocates the same few objects at any size.
func TestHashMatrixAllocsConstant(t *testing.T) {
	small, large := pbspgemm.NewER(1<<8, 4, 1), pbspgemm.NewER(1<<15, 8, 2)
	as := testing.AllocsPerRun(10, func() { HashMatrix(small) })
	al := testing.AllocsPerRun(10, func() { HashMatrix(large) })
	if as != al || al > 8 {
		t.Fatalf("HashMatrix allocates %v objects at %d entries and %v at %d, want the same few", as, small.NNZ(), al, large.NNZ())
	}
}

// TestServerHandsAdmissionPlanToEngine: a cold unmasked arithmetic request
// runs the plan admission made — the engine obeys it rather than planning
// again, and counts the pick as Auto's — and its binary reply states its
// length. A degraded request runs the budgeted plan degradation made (PB, as
// before), and a masked one runs the row kernel as before.
func TestServerHandsAdmissionPlanToEngine(t *testing.T) {
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a, b := pbspgemm.NewER(256, 8, 1), pbspgemm.NewER(256, 8, 2)
	const degBudget = 128 << 10
	tiled, err := eng.Plan(context.Background(), a, b, pbspgemm.WithMemoryBudget(degBudget))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	var handed []*pbspgemm.Plan
	flip := map[pbspgemm.Algorithm]pbspgemm.Algorithm{pbspgemm.PB: pbspgemm.SPA, pbspgemm.SPA: pbspgemm.PB}
	inner := s.execute
	s.execute = func(ctx context.Context, sp *productSpec) (*Product, error) {
		handed = append(handed, sp.plan)
		if sp.plan != nil {
			// Flip the pick: only a run of the handed plan reports the other kernel.
			flipped := *sp.plan
			flipped.Chosen = flip[flipped.Chosen]
			sp.plan = &flipped
		}
		return inner(ctx, sp)
	}

	rec := do(s, httptest.NewRequest("POST", "/multiply",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"output":"binary"}`, ida, idb))))
	if rec.Code != http.StatusOK {
		t.Fatalf("cold multiply: status %d body %s", rec.Code, rec.Body)
	}
	if len(handed) != 1 || handed[0] == nil || handed[0].NNZA != a.NNZ() || handed[0].NNZB != b.NNZ() {
		t.Fatalf("the engine was handed %v, want admission's plan of this product", handed)
	}
	other := flip[handed[0].Chosen]
	if ran := rec.Header().Get("X-Pbspgemm-Algorithm"); ran != other.String() {
		t.Fatalf("ran %s, want the handed plan's %v: the engine planned again", ran, other)
	}
	if am := eng.Metrics().ByAlgorithm[other]; am.Calls != 1 || am.AutoChosen != 1 {
		t.Fatalf("%v: %d calls, %d Auto picks, want 1 and 1", other, am.Calls, am.AutoChosen)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("binary reply states Content-Length %q, body has %d bytes", got, rec.Body.Len())
	}
	got, err := mmio.ReadBinary(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !pbspgemm.EqualWithin(pbspgemm.Reference(a, b), got, 1e-9) {
		t.Fatal("served product differs from reference")
	}

	// Masked: the row kernel, under PB's bucket, no Auto pick.
	before := eng.Metrics().ByAlgorithm[pbspgemm.PB]
	resp, mrec := multiplyJSON(t, s, fmt.Sprintf(`{"a":%q,"b":%q,"mask":%q}`, ida, idb, ida))
	if mrec.Code != http.StatusOK || resp.Algorithm != "MaskedRows" {
		t.Fatalf("masked multiply: status %d algorithm %q", mrec.Code, resp.Algorithm)
	}
	if pb := eng.Metrics().ByAlgorithm[pbspgemm.PB]; pb.Calls != before.Calls+1 || pb.AutoChosen != before.AutoChosen {
		t.Fatalf("masked run recorded as %+v after %+v", pb, before)
	}

	// Degraded: a server whose ceiling admits only the budgeted footprint runs the
	// budgeted product on the plan degradation made for it: PB, as before.
	deg, err := NewServer(Config{Engine: eng, MemoryCeilingBytes: tiled.PredictedFootprintBytes, DegradedBudgetBytes: degBudget})
	if err != nil {
		t.Fatal(err)
	}
	deg.execute = func(ctx context.Context, sp *productSpec) (*Product, error) {
		handed = append(handed, sp.plan)
		return deg.runProduct(ctx, sp)
	}
	handed = nil
	ida, idb = uploadText(t, deg, a), uploadText(t, deg, b)
	dresp, drec := multiplyJSON(t, deg, fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb))
	if drec.Code != http.StatusOK || !dresp.Degraded {
		t.Fatalf("degradable multiply: status %d degraded %v", drec.Code, dresp.Degraded)
	}
	if len(handed) != 1 || handed[0] == nil || handed[0].Chosen != pbspgemm.PB ||
		handed[0].PredictedFootprintBytes != tiled.PredictedFootprintBytes {
		t.Fatalf("the degraded run was handed %+v, want the budgeted plan %+v", handed, tiled)
	}
	if dresp.Algorithm != pbspgemm.PB.String() {
		t.Fatalf("degraded run ran %q, want PB (a budget is met by bin groups)", dresp.Algorithm)
	}
}
