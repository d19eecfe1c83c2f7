package shard

import (
	"context"

	"pbspgemm"
)

// Backend executes one block multiply somewhere — the coordinator neither
// knows nor cares where. Implementations must be safe for concurrent use,
// honor ctx, and return errors that classify themselves via Retryable()
// (and RetryAfter() for 429-style sheds) when the default
// everything-retryable classification is wrong.
//
// The two production implementations are NewEnginePool (in-process) and the
// serve package's PeerClient (remote pbspgemmd over HTTP).
type Backend interface {
	// Name identifies the backend in metrics, breaker state and errors.
	Name() string
	// Multiply computes a·b with the coordinator's pinned PB kernel, under a
	// PB memory budget of budget bytes when budget > 0 (Config.MaxBlockBytes).
	// The result must be caller-owned.
	Multiply(ctx context.Context, a, b *pbspgemm.CSR, budget int64) (*pbspgemm.CSR, error)
	// Probe is the cheap health check a half-open breaker runs before
	// trusting the backend with a real block (a peer GETs /healthz).
	Probe(ctx context.Context) error
}

// EnginePool is the in-process Backend: block multiplies run on a local
// Engine, at most workers at a time, so a sharded product cannot starve the
// serving engine's other callers.
type EnginePool struct {
	name string
	eng  *pbspgemm.Engine
	sem  chan struct{}
	opts []pbspgemm.Option
}

// NewEnginePool wraps eng as a Backend running at most workers concurrent
// block multiplies (workers < 1 means 1). opts apply per block; the
// algorithm is pinned to PB for cross-backend bit-identity, and each call's
// budget is its WithMemoryBudget.
func NewEnginePool(name string, eng *pbspgemm.Engine, workers int, opts ...pbspgemm.Option) *EnginePool {
	if workers < 1 {
		workers = 1
	}
	return &EnginePool{
		name: name,
		eng:  eng,
		sem:  make(chan struct{}, workers),
		opts: opts,
	}
}

// pinned is a copy of opts with the algorithm pinned to PB, the kernel every
// block runs, under a memory budget when budget > 0 (WithMemoryBudget rejects
// a negative one).
func pinned(opts []pbspgemm.Option, budget int64) []pbspgemm.Option {
	opts = append(append([]pbspgemm.Option{}, opts...), pbspgemm.WithAlgorithm(pbspgemm.PB))
	if budget > 0 {
		return append(opts, pbspgemm.WithMemoryBudget(budget))
	}
	return opts
}

// Name implements Backend.
func (p *EnginePool) Name() string { return p.name }

// Multiply implements Backend.
func (p *EnginePool) Multiply(ctx context.Context, a, b *pbspgemm.CSR, budget int64) (*pbspgemm.CSR, error) {
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res, err := p.eng.Multiply(ctx, a, b, pinned(p.opts, budget)...)
	if err != nil {
		return nil, err
	}
	return res.C, nil
}

// Probe implements Backend; the local engine is always reachable.
func (p *EnginePool) Probe(context.Context) error { return nil }
