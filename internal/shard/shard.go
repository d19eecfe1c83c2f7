// Package shard is the multi-node unit of scale-out for pbspgemm: a block
// partitioner plus a resilient coordinator that fans C(i,j) =
// Σ_k A(i,k)·B(k,j) block multiplies out over a set of Backends (in-process
// Engine pools, remote pbspgemmd peers) and stitches the results.
//
// With no configured Backends a product is one 1×1×1 block in process, and
// MaxBlockBytes is its PB memory budget: PB's bin groups are the row bands
// without the copies, so C is direct PB's bytes. Configured Backends get a
// grid cut once, the way PB-SpGEMM bins C: by row range, so that every block
// folds alone. One plan of the whole product gives the block count; the blocks
// go to A's rows first (a row band is a view of A and needs no reduce), then
// to B's columns, and to the inner dimension — whose partial products need an
// EWiseAdd reduce that regroups float sums — only when both are at
// Config.MaxGridDim or their extent. Peers deduplicate uploads by content, so
// a B left whole travels once per peer whatever the grid.
//
// Robustness is the headline, not an afterthought. Failures across process
// boundaries are the common case, so every block walks a failure ladder
// that ends in a correct product or a typed error — never a partial or
// corrupt C:
//
//  1. per-block deadlines, with exponential backoff + full jitter on
//     retryable failures (connect errors, 429 — Retry-After honored as a
//     floor — and 5xx);
//  2. hedged re-dispatch of straggler blocks after a p99-derived delay,
//     first result wins and the loser is cancelled;
//  3. a per-peer circuit breaker (closed → open → half-open, driven by
//     consecutive failures and /healthz probes) that routes around dark
//     peers without wasting attempts on them;
//  4. the terminal rung: any block whose retries and hedges are exhausted
//     is recomputed on the local Engine, under FallbackBudgetBytes when set.
//
// The fallback is bit-identical by construction: every backend runs the
// same deterministic PB kernel (pinned algorithm, bit-identical across
// thread counts and memory budgets: a budget cuts the bins into groups and
// every bin still folds once), so re-executing a block locally — or on a
// hedge — can never change the bytes of C.
package shard

import (
	"errors"
	"fmt"
	"time"

	"pbspgemm"
)

// Config sizes a Coordinator. Local is required; zero fields select the
// documented defaults.
type Config struct {
	// Local is the engine used for planning/partitioning and for the
	// terminal local fallback. Required.
	Local *pbspgemm.Engine

	// Backends execute block multiplies. Empty runs every product as one
	// block on a pool over Local (NewEnginePool), under MaxBlockBytes.
	Backends []Backend

	// MaxBlockBytes is the product's PB memory budget with no Backends; with
	// them, the per-block predicted-footprint ceiling (so blocks pass the
	// target's admission control): the whole product's predicted footprint
	// plus an eighth, over MaxBlockBytes, is the block count, grown only while
	// a block's own Plan still predicts more, bounded by MaxGridDim. <= 0
	// disables both: one unbudgeted 1×1×1 block on the inputs, unplanned.
	MaxBlockBytes int64
	// MaxGridDim bounds each dimension of a Backends grid; blocks go to rows,
	// then columns, then inner, each once the one before is at MaxGridDim or
	// its extent. Default 16.
	MaxGridDim int

	// BlockTimeout is the per-block attempt deadline (primary + hedge
	// together). Default 60s.
	BlockTimeout time.Duration
	// MaxAttempts is how many backend attempts one block gets before the
	// terminal local fallback. Default 3.
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between attempts; the
	// delay before attempt n is drawn uniformly from
	// [0, min(RetryMaxDelay, RetryBaseDelay·2^(n-1))] (full jitter), with
	// a server-sent Retry-After honored as a floor. Defaults 25ms / 2s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// HedgeDelay is the straggler re-dispatch delay until enough latency
	// samples exist; after hedgeMinSamples successful blocks it is replaced
	// by the observed p99 block latency (never below 1ms). Default 250ms.
	// Negative disables hedging.
	HedgeDelay time.Duration

	// BreakerThreshold consecutive failures open a backend's breaker;
	// after BreakerCooldown it half-opens and one probe (Backend.Probe,
	// e.g. GET /healthz) decides whether traffic resumes. Defaults 3 / 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// FallbackBudgetBytes is the MemoryBudgetBytes of the terminal local
	// fallback — bin groups bound the working set of a block that may have
	// been sized for a bigger peer; with no Backends, MaxBlockBytes bounds it
	// too. 0 runs unbudgeted (bit-identical either way). Default 0.
	FallbackBudgetBytes int64

	// Seed seeds the coordinator's jitter RNG; 0 selects a fixed default,
	// keeping chaos runs replayable.
	Seed uint64

	// Options are per-block engine options applied to local execution and
	// planning (threads, bins...). The algorithm is always pinned to PB —
	// column kernels fold duplicates in a different order, and cross-backend
	// bit-identity requires one fold order everywhere.
	Options []pbspgemm.Option
}

// Defaults for the Config fields.
const (
	DefaultMaxGridDim       = 16
	DefaultBlockTimeout     = 60 * time.Second
	DefaultMaxAttempts      = 3
	DefaultRetryBaseDelay   = 25 * time.Millisecond
	DefaultRetryMaxDelay    = 2 * time.Second
	DefaultHedgeDelay       = 250 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxGridDim == 0 {
		c.MaxGridDim = DefaultMaxGridDim
	}
	if c.BlockTimeout == 0 {
		c.BlockTimeout = DefaultBlockTimeout
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if c.RetryMaxDelay == 0 {
		c.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = DefaultHedgeDelay
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	return c
}

// Result is one completed sharded product.
type Result struct {
	C    *pbspgemm.CSR
	Grid pbspgemm.Grid
	// Blocks is the number of block multiplies the grid induced; Retries,
	// Hedges and Fallbacks count this product's walk down the failure
	// ladder (all zero on a healthy fleet).
	Blocks    int
	Retries   int64
	Hedges    int64
	Fallbacks int64
	// Flops is the symbolic multiplication count of the full product.
	Flops   int64
	Elapsed time.Duration
}

// BlockError is the typed terminal error of one block: every rung of the
// failure ladder was exhausted, including the local fallback. The product
// that contained it returned no C at all.
type BlockError struct {
	I, J, K  int
	Attempts int
	Err      error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("shard: block (%d,%d,%d) failed after %d attempts and local fallback: %v",
		e.I, e.J, e.K, e.Attempts, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

// ReduceError is the typed error of a failed C(i,j) reduce — remote work
// succeeded but the local combine did not; the product returned no C.
type ReduceError struct {
	I, J int
	Err  error
}

func (e *ReduceError) Error() string {
	return fmt.Sprintf("shard: reduce of block C(%d,%d) failed: %v", e.I, e.J, e.Err)
}

func (e *ReduceError) Unwrap() error { return e.Err }

// retryabler is implemented by backend errors that know whether a retry can
// help (serve.RemoteError does); retryAfterer by ones carrying a
// server-sent backoff floor (a 429's Retry-After).
type retryabler interface{ Retryable() bool }
type retryAfterer interface{ RetryAfter() time.Duration }

// retryable classifies an attempt error: context errors never retry (the
// caller is gone or the block deadline will re-fire identically elsewhere,
// but the ladder still falls through to the fallback), errors that say so
// themselves are believed, and everything else — including contained panics
// — is retryable: the next backend may simply not share the failure.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var r retryabler
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return true
}

// retryAfterOf extracts a server-sent backoff floor, if any.
func retryAfterOf(err error) time.Duration {
	var ra retryAfterer
	if errors.As(err, &ra) {
		return ra.RetryAfter()
	}
	return 0
}
