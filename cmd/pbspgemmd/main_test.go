package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"pbspgemm"
)

// TestDaemonSmoke boots the daemon on a random port, uploads two matrices,
// multiplies them, re-multiplies asserting a cache hit, and shuts down
// cleanly — the CI integration smoke.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	addrc := make(chan string, 1)
	done := make(chan int, 1)
	goroutinesBefore := runtime.NumGoroutine()
	go func() {
		done <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-cache", "64M", "-ceiling", "1G"},
			&stdout, &stderr, func(addr string) { addrc <- addr })
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("daemon exited early with %d: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	upload := func(m *pbspgemm.CSR) string {
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
		if resp.StatusCode != http.StatusCreated {
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
	ida := upload(pbspgemm.NewER(128, 4, 1))
	idb := upload(pbspgemm.NewER(128, 4, 2))

	multiply := func() (cached bool) {
		t.Helper()
		resp, err := http.Post(base+"/multiply", "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"a":%q,"b":%q}`, ida, idb))))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("multiply: %d %s", resp.StatusCode, body)
		}
		var out struct {
			NNZ    int64 `json:"nnz"`
			Cached bool  `json:"cached"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.NNZ == 0 {
			t.Fatal("empty product")
		}
		return out.Cached
	}
	if multiply() {
		t.Fatal("first multiply reported cached")
	}
	if !multiply() {
		t.Fatal("repeat multiply not served from cache")
	}

	// The engine ran exactly once for the two requests.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Engine struct {
			Calls int64 `json:"calls"`
		} `json:"engine"`
		Cache struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Engine.Calls != 1 || m.Cache.Hits != 1 {
		t.Fatalf("engine calls=%d cache hits=%d, want 1 and 1", m.Engine.Calls, m.Cache.Hits)
	}

	// Clean shutdown on ctx cancel, with no leaked goroutines.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited with %d: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !bytes.Contains(stdout.Bytes(), []byte("shut down")) {
		t.Fatalf("missing shutdown message in %q", stdout.String())
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-nope"}, &out, &out, nil); code != 2 {
		t.Fatalf("bad flag exit code = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-cache", "12Q"}, &out, &out, nil); code != 1 {
		t.Fatalf("bad byte count exit code = %d, want 1", code)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":    0,
		"1024": 1024,
		"4k":   4 << 10,
		"512M": 512 << 20,
		"2G":   2 << 30,
		"1T":   1 << 40,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "12Q"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) succeeded, want error", bad)
		}
	}
}
