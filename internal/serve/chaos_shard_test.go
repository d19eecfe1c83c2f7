//go:build faultinject

package serve

// Remote-site chaos through the real HTTP stack: injected peer-dial faults
// must drain through the shard coordinator's ladder into a bit-identical
// product — a flaky or dark peer costs latency, never bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/mmio"
)

// shardedChaosMultiply runs one sharded product through a coordinator
// server backed by a live peer, under the armed plan, and returns the
// decoded result.
func shardedChaosMultiply(t *testing.T, a, b *pbspgemm.CSR) *pbspgemm.CSR {
	t.Helper()
	peer := newTestServer(t, nil)
	peerHS := httptest.NewServer(peer)
	t.Cleanup(peerHS.Close)
	s := newTestServer(t, func(c *Config) {
		c.Peers = []string{peerHS.URL}
		c.ShardBlockBytes = 16 << 10
		c.ShardLocalWorkers = 2
	})
	ida, idb := uploadText(t, s, a), uploadText(t, s, b)
	body, _ := json.Marshal(multiplyRequest{A: ida, B: idb, Output: "binary"})
	rec := do(s, httptest.NewRequest("POST", "/multiply", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded multiply: status %d body %s", rec.Code, rec.Body)
	}
	c, err := mmio.ReadBinary(rec.Body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return c
}

func TestChaosFlakyPeerDialBitIdentical(t *testing.T) {
	a := intMatrix(128, 4, 41)
	b := intMatrix(128, 4, 42)
	eng, _ := pbspgemm.NewEngine()
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	// Every other peer exchange dies at dial time.
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SitePeerDial, Hit: 1, Every: 2, Worker: -1,
		Mode: faultinject.ModeError})
	t.Cleanup(faultinject.Disarm)
	got := shardedChaosMultiply(t, a, b)
	if faultinject.Hits(faultinject.SitePeerDial) == 0 {
		t.Fatal("peer-dial site was never reached")
	}
	compareCSR(t, ref.C, got)
}

func TestChaosDarkPeerFallsBackBitIdentical(t *testing.T) {
	a := intMatrix(128, 4, 43)
	b := intMatrix(128, 4, 44)
	eng, _ := pbspgemm.NewEngine()
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	// Every peer exchange fails: all remote work drains into the local pool
	// and fallback; the bytes must not change.
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SitePeerDial, Hit: 1, Every: 1, Worker: -1,
		Mode: faultinject.ModeError})
	t.Cleanup(faultinject.Disarm)
	got := shardedChaosMultiply(t, a, b)
	if faultinject.Hits(faultinject.SitePeerDial) == 0 {
		t.Fatal("peer-dial site was never reached")
	}
	compareCSR(t, ref.C, got)
}

// compareCSR asserts bit-identity.
func compareCSR(t *testing.T, want, got *pbspgemm.CSR) {
	t.Helper()
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz: want %d got %d", want.NNZ(), got.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: want %d got %d", i, want.RowPtr[i], got.RowPtr[i])
		}
	}
	for i := range want.Val {
		if want.ColIdx[i] != got.ColIdx[i] || want.Val[i] != got.Val[i] {
			t.Fatalf("entry %d: want (%d,%v) got (%d,%v)",
				i, want.ColIdx[i], want.Val[i], got.ColIdx[i], got.Val[i])
		}
	}
}
