package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"pbspgemm"
	"pbspgemm/internal/mmio"
)

// TestClusterSIGKILLBitIdentical is the multi-process resilience e2e: a
// coordinator node fans a sharded product out over two real pbspgemmd peer
// processes, one peer is SIGKILLed mid-multiply, and the product must still
// complete — bit-identical to a single-node PB multiply — via the retry /
// breaker / local-fallback ladder. Afterwards the coordinator shuts down
// without leaking goroutines.
func TestClusterSIGKILLBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}

	// Build the daemon once; the peers run as real OS processes so SIGKILL
	// exercises the true failure surface (sockets dying mid-exchange), not a
	// simulated error.
	bin := filepath.Join(t.TempDir(), "pbspgemmd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	peer1 := startPeer(t, bin)
	peer2 := startPeer(t, bin)

	// Integer-valued factors: the sharded inner split regroups the float
	// additions of the k-reduce, so bit-identity to the single-node fold
	// needs exact-value inputs (the repo-wide convention for these tests).
	a := pbspgemm.NewER(384, 6, 101)
	b := pbspgemm.NewER(384, 6, 102)
	for i := range a.Val {
		a.Val[i] = float64(i%9 + 1)
	}
	for i := range b.Val {
		b.Val[i] = float64(i%7 + 1)
	}
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Multiply(context.Background(), a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatalf("reference multiply: %v", err)
	}

	// The coordinator runs in-process (so the goroutine-leak check sees it).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goroutinesBefore := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	addrc := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-peers", peer1.base + "," + peer2.base,
			"-shard-block", "64K", "-shard-workers", "1",
		}, &stdout, &stderr, func(addr string) { addrc <- addr })
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("coordinator exited early with %d: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not become ready")
	}

	ida := uploadTo(t, base, a)
	idb := uploadTo(t, base, b)

	multiply := func() *pbspgemm.CSR {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"a": ida, "b": idb, "output": "binary"})
		resp, err := http.Post(base+"/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("multiply: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("multiply: status %d: %s", resp.StatusCode, msg)
		}
		c, err := mmio.ReadBinary(resp.Body)
		if err != nil {
			t.Fatalf("decode result: %v", err)
		}
		return c
	}

	// First product with the full fleet: kill peer1 the moment its engine
	// reports block work (mid-multiply), or after 2s if the product spread
	// elsewhere — either way the cluster loses a member while serving.
	resc := make(chan *pbspgemm.CSR, 1)
	go func() { resc <- multiply() }()
	killed := false
	deadline := time.After(2 * time.Second)
poll:
	for {
		select {
		case c := <-resc:
			// Product finished before the kill landed; kill now and verify
			// the next product survives instead.
			peer1.kill(t)
			killed = true
			checkSame(t, ref.C, c)
			break poll
		case <-deadline:
			peer1.kill(t)
			killed = true
			checkSame(t, ref.C, <-resc)
			break poll
		default:
			if peerEngineCalls(peer1.base) >= 1 {
				peer1.kill(t)
				killed = true
				checkSame(t, ref.C, <-resc)
				break poll
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !killed {
		t.Fatal("peer1 was never killed")
	}

	// Second product against the degraded fleet: dead-peer dispatches must
	// drain through retries into peer2 or the local fallback, and the bytes
	// must not change. (Different cache key is not needed — the coordinator
	// cached the first product, so force a fresh one by swapping factors.)
	body, _ := json.Marshal(map[string]string{"a": idb, "b": ida, "output": "binary"})
	resp, err := http.Post(base+"/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post-kill multiply: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("post-kill multiply: status %d: %s", resp.StatusCode, msg)
	}
	got, err := mmio.ReadBinary(resp.Body)
	if err != nil {
		t.Fatalf("decode post-kill result: %v", err)
	}
	ref2, err := eng.Multiply(context.Background(), b, a, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, ref2.C, got)

	// Clean shutdown, no goroutine leaks from the retry/hedge machinery.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("coordinator exited with %d: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
	// Idle HTTP keep-alive connections (this test's client and the peer
	// clients both ride the default transport) hold reader goroutines that
	// are not leaks; drop them before counting.
	peer2.kill(t)
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			return
		}
		http.DefaultClient.CloseIdleConnections()
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d (leak)", goroutinesBefore, runtime.NumGoroutine())
}

// peerProc is one pbspgemmd child process.
type peerProc struct {
	cmd  *exec.Cmd
	base string
	dead bool
}

// startPeer boots the built daemon on a random port and waits for /healthz.
func startPeer(t *testing.T, bin string) *peerProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache", "32M", "-ceiling", "512M")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start peer: %v", err)
	}
	p := &peerProc{cmd: cmd}
	t.Cleanup(func() { p.kill(t) })

	// The daemon prints "pbspgemmd: listening on 127.0.0.1:PORT (...)".
	line := ""
	sc := bufio.NewScanner(stdout)
	linec := make(chan string, 1)
	go func() {
		if sc.Scan() {
			linec <- sc.Text()
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case line = <-linec:
	case <-time.After(10 * time.Second):
		t.Fatal("peer did not print its address")
	}
	i := strings.Index(line, "listening on ")
	if i < 0 {
		t.Fatalf("unexpected peer banner: %q", line)
	}
	addr := strings.Fields(line[i+len("listening on "):])[0]
	p.base = "http://" + addr

	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("peer %s never became healthy", p.base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// kill SIGKILLs the peer (idempotent) and reaps it.
func (p *peerProc) kill(t *testing.T) {
	t.Helper()
	if p.dead {
		return
	}
	p.dead = true
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = p.cmd.Wait()
}

// peerEngineCalls reads engine.calls from a peer's /metrics; 0 on any error
// (the caller just polls again).
func peerEngineCalls(base string) int64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var m struct {
		Engine struct {
			Calls int64 `json:"calls"`
		} `json:"engine"`
	}
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return 0
	}
	return m.Engine.Calls
}

// uploadTo posts m as Matrix Market text and returns the registry id.
func uploadTo(t *testing.T, base string, m *pbspgemm.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pbspgemm.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/matrices", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// checkSame asserts got is bit-identical to want.
func checkSame(t *testing.T, want, got *pbspgemm.CSR) {
	t.Helper()
	if want.NumRows != got.NumRows || want.NumCols != got.NumCols || want.NNZ() != got.NNZ() {
		t.Fatalf("result shape/nnz mismatch: want %dx%d/%d got %dx%d/%d",
			want.NumRows, want.NumCols, want.NNZ(), got.NumRows, got.NumCols, got.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: want %d got %d", i, want.RowPtr[i], got.RowPtr[i])
		}
	}
	for i := range want.Val {
		if want.ColIdx[i] != got.ColIdx[i] || want.Val[i] != got.Val[i] {
			t.Fatalf("entry %d: want (%d,%v) got (%d,%v) — not bit-identical",
				i, want.ColIdx[i], want.Val[i], got.ColIdx[i], got.Val[i])
		}
	}
}
