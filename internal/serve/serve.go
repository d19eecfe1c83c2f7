// Package serve is the multiplication-as-a-service layer in front of the
// pbspgemm Engine: a content-addressed matrix registry (upload once, reuse
// zero-copy across requests), an LRU result cache under a global memory
// budget, admission control driven by the Auto planner's pre-execution
// footprint prediction (queue or shed before allocating, never after), and
// request batching that coalesces concurrent identical products onto one
// in-flight multiply while independent ones fan out through the Engine's
// worker pool.
//
// The components — Registry, Cache, Admission, flight group — are plain
// concurrent data structures, unit-testable without sockets; Server wires
// them behind an http.Handler that cmd/pbspgemmd mounts. All request
// contexts propagate to the kernel's phase-boundary cancellation polls, so
// a dropped client stops paying for its product at the next phase edge.
package serve

import (
	"time"

	"pbspgemm"
)

// Config sizes the serving layer. The zero value of any field selects the
// documented default; Engine is required.
type Config struct {
	// Engine executes the products. Required.
	Engine *pbspgemm.Engine

	// MaxUploadBytes caps the bytes consumed from one upload body (text or
	// binary) before the request is rejected with a size error.
	// Default 256 MiB.
	MaxUploadBytes int64
	// RegistryBudgetBytes caps the total resident bytes of registered
	// matrices; uploads past it are rejected until matrices are deleted.
	// Default 2 GiB.
	RegistryBudgetBytes int64
	// CacheBudgetBytes caps the result cache; least-recently-used products
	// are evicted to stay under it. Negative disables caching.
	// Default 512 MiB.
	CacheBudgetBytes int64
	// MemoryCeilingBytes caps the sum of planner-predicted footprints of
	// in-flight multiplications; requests that would exceed it queue, and
	// queue overflow (or a prediction that alone exceeds the ceiling) sheds
	// with 429 + Retry-After. Default 4 GiB.
	MemoryCeilingBytes int64
	// DegradedBudgetBytes, when > 0, enables graceful degradation for
	// requests whose full-speed predicted footprint alone exceeds the memory
	// ceiling: instead of shedding immediately, the server re-plans the
	// product with this per-call memory budget (bin groups bound the working
	// set; the bytes are the full-speed product's) and runs the budgeted
	// multiply if the degraded footprint fits. Requests that pin an explicit
	// memory_budget_bytes are never overridden — they shed as before.
	// Default 0 (disabled).
	DegradedBudgetBytes int64
	// MaxQueue bounds how many requests may wait for admission at once.
	// Default 64.
	MaxQueue int
	// MaxQueueWait bounds how long one request may wait for admission
	// before it is shed. Default 30s.
	MaxQueueWait time.Duration
	// RequestTimeout is the per-request deadline propagated to the kernel's
	// phase-boundary cancellation polls. Default 2m.
	RequestTimeout time.Duration
	// LatencyWindow is how many recent samples each endpoint's latency
	// percentiles are computed over. Default 1024.
	LatencyWindow int

	// Peers lists base URLs of other pbspgemmd nodes (e.g.
	// "http://host:8080"). Non-empty enables the sharded execution path:
	// unmasked arithmetic products with the auto or pb algorithm and no
	// per-request overrides are cut into one row band of A per peer (plus one
	// for a local worker pool) and fanned out, with the shard coordinator's
	// full failure ladder behind them. Empty (the default) serves every
	// product on the local Engine.
	Peers []string
	// ShardBlockBytes is the PB memory budget of every block of the sharded
	// path (shard.Config.MaxBlockBytes), wherever the block runs: a peer gets
	// it as its request's memory_budget_bytes. <= 0 runs every block
	// unbudgeted. Default 0.
	ShardBlockBytes int64
	// ShardLocalWorkers bounds how many sharded blocks may run on the local
	// engine concurrently. Default 1.
	ShardLocalWorkers int
}

// Defaults for the Config fields; exported so cmd/pbspgemmd's flag help and
// the README can quote them from one place.
const (
	DefaultMaxUploadBytes      = int64(256) << 20
	DefaultRegistryBudgetBytes = int64(2) << 30
	DefaultCacheBudgetBytes    = int64(512) << 20
	DefaultMemoryCeilingBytes  = int64(4) << 30
	DefaultMaxQueue            = 64
	DefaultMaxQueueWait        = 30 * time.Second
	DefaultRequestTimeout      = 2 * time.Minute
	DefaultLatencyWindow       = 1024
)

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.RegistryBudgetBytes == 0 {
		c.RegistryBudgetBytes = DefaultRegistryBudgetBytes
	}
	if c.CacheBudgetBytes == 0 {
		c.CacheBudgetBytes = DefaultCacheBudgetBytes
	}
	if c.MemoryCeilingBytes == 0 {
		c.MemoryCeilingBytes = DefaultMemoryCeilingBytes
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = DefaultMaxQueueWait
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.LatencyWindow == 0 {
		c.LatencyWindow = DefaultLatencyWindow
	}
	return c
}

// csrBytes is the resident cost model of one CSR matrix: (rows+1)×8 RowPtr
// + nnz×(4+8) ColIdx/Val. Registry and cache budgets both account in it.
func csrBytes(m *pbspgemm.CSR) int64 {
	return int64(len(m.RowPtr))*8 + m.NNZ()*12
}
