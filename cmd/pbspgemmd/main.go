// Command pbspgemmd is the multiplication-as-a-service daemon: an HTTP/JSON
// front end over the pbspgemm Engine with a content-addressed matrix
// registry, an LRU result cache, planner-driven admission control and
// singleflight request batching (see internal/serve and the README's
// "Serving" section).
//
// Example session:
//
//	pbspgemmd -addr :8080 -cache 512M -ceiling 4G &
//	curl -s --data-binary @a.mtx localhost:8080/matrices   # -> {"id":"<hashA>",...}
//	curl -s --data-binary @b.mtx localhost:8080/matrices   # -> {"id":"<hashB>",...}
//	curl -s -X POST localhost:8080/multiply \
//	     -d '{"a":"<hashA>","b":"<hashB>","algorithm":"auto"}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pbspgemm"
	"pbspgemm/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable daemon body: it parses args, boots the server on the
// configured address, reports the bound address through ready (tests pass
// :0 and read the port back), and shuts down cleanly when ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("pbspgemmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		threads   = fs.Int("threads", 0, "default worker threads per multiply (0 = GOMAXPROCS)")
		upload    = fs.String("max-upload", "256M", "per-upload byte limit")
		registry  = fs.String("registry", "2G", "matrix registry memory budget")
		cache     = fs.String("cache", "512M", "result cache memory budget")
		ceiling   = fs.String("ceiling", "4G", "admission memory ceiling (sum of in-flight predicted footprints)")
		queue     = fs.Int("queue", serve.DefaultMaxQueue, "max requests waiting for admission")
		queueWait = fs.Duration("queue-wait", serve.DefaultMaxQueueWait, "max time one request waits for admission")
		timeout   = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline, propagated to kernel cancellation polls")
		degraded  = fs.String("degraded-budget", "0", "memory budget for the degraded retry when a full run is shed on footprint (0 disables)")
		peers     = fs.String("peers", "", "comma-separated base URLs of peer pbspgemmd nodes; non-empty enables 2D block-sharded fan-out for shardable products")
		shardBlk  = fs.String("shard-block", "0", "per-block predicted-footprint target of the sharded path (0 = one block per product)")
		shardWkrs = fs.Int("shard-workers", 1, "max sharded blocks running on the local engine at once")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := serve.Config{
		MaxQueue:     *queue,
		MaxQueueWait: *queueWait,
	}
	var err error
	if cfg.MaxUploadBytes, err = parseBytes(*upload); err != nil {
		return fatal(stderr, err)
	}
	if cfg.RegistryBudgetBytes, err = parseBytes(*registry); err != nil {
		return fatal(stderr, err)
	}
	if cfg.CacheBudgetBytes, err = parseBytes(*cache); err != nil {
		return fatal(stderr, err)
	}
	if cfg.MemoryCeilingBytes, err = parseBytes(*ceiling); err != nil {
		return fatal(stderr, err)
	}
	if cfg.DegradedBudgetBytes, err = parseBytes(*degraded); err != nil {
		return fatal(stderr, err)
	}
	cfg.RequestTimeout = *timeout
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if cfg.ShardBlockBytes, err = parseBytes(*shardBlk); err != nil {
		return fatal(stderr, err)
	}
	cfg.ShardLocalWorkers = *shardWkrs

	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(*threads))
	if err != nil {
		return fatal(stderr, err)
	}
	cfg.Engine = eng
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return fatal(stderr, err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stdout, "pbspgemmd: listening on %s (cache %s, ceiling %s)\n",
		ln.Addr(), *cache, *ceiling)
	if ready != nil {
		ready(ln.Addr().String())
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fatal(stderr, err)
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return fatal(stderr, err)
		}
		<-errc // Serve has returned ErrServerClosed
	}
	fmt.Fprintln(stdout, "pbspgemmd: shut down")
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "pbspgemmd:", err)
	return 1
}

// parseBytes parses a byte count with an optional K/M/G/T suffix (powers of
// 1024), e.g. "512M", "2G", "65536".
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty byte count")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	case 't', 'T':
		mult = 1 << 40
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte count %q", s)
	}
	return n * mult, nil
}
