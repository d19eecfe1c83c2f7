package pbspgemm

import (
	"context"
	"fmt"
)

// Option is a per-call (or per-engine, via NewEngine) functional option for
// the multiplication entry points: Engine.Multiply, Engine.MultiplyMasked,
// MultiplyOver, MultiplyMasked and EngineMultiplyOver. Options validate
// eagerly — an out-of-range value surfaces as an *OptionError from the call
// that received it, before any work runs — and later options override
// earlier ones, so engine defaults can be overridden per call.
type Option func(*config) error

// OptionError is the typed error returned when an option carries an invalid
// value, e.g. a negative thread count. Test with errors.As, or errors.Is
// against ErrInvalidOption.
type OptionError struct {
	// Option names the offending option.
	Option string
	// Value is the rejected value.
	Value int64
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("pbspgemm: invalid option %s = %d", e.Option, e.Value)
}

// Is reports ErrInvalidOption as a match, so callers can class-check with
// errors.Is without naming the concrete type.
func (e *OptionError) Is(target error) bool { return target == ErrInvalidOption }

// ErrInvalidOption is the errors.Is sentinel every *OptionError matches.
var ErrInvalidOption = fmt.Errorf("pbspgemm: invalid option")

// errNilMask rejects MultiplyMasked calls that end up with no mask at all —
// silently returning the full unmasked product would be exactly the dense
// blow-up the masked entry points exist to avoid.
var errNilMask = fmt.Errorf("%w: MultiplyMasked requires a non-nil mask", ErrInvalidOption)

// config is the resolved per-call configuration the functional options
// mutate. The zero value is the paper's defaults: PB-SpGEMM, all cores,
// auto-sized bins, no budget, no mask.
type config struct {
	ctx        context.Context
	algorithm  Algorithm
	threads    int
	nbins      int
	localBin   int
	l2Cache    int
	budget     int64
	mask       *CSR
	complement bool
	plan       *SemiringPlan
	autoPlan   *Plan
}

// resolve applies defaults then per-call options in order.
func resolve(defaults []Option, opts []Option) (config, error) {
	var c config
	for _, o := range defaults {
		if err := o(&c); err != nil {
			return c, err
		}
	}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c *config) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// cancelFunc adapts the call's context to the engines' phase-boundary
// cancellation hook; nil when the context can never be canceled, so the
// hot path pays nothing.
func (c *config) cancelFunc() func() error {
	ctx := c.context()
	if ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// WithAlgorithm selects the SpGEMM implementation (default PB), or Auto to
// let the Engine's planner pick per call. Semiring and masked multiplications
// have two kernels: PB, the tuple pipeline, and SPA, the row kernel (for every
// semiring); Auto prices both, the row kernel's accumulator at the semiring's
// value width. A plain mask always runs the row kernel's masked form; a
// complement mask runs the kernel this option names (Auto: the one the
// planner picks for the unmasked product) and drops M's positions from its
// product. The column kernels Heap, Hash and HashVec have no semiring or
// masked form: such a call returns *OptionError.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) error {
		if a < PB || a > Auto {
			return &OptionError{Option: "WithAlgorithm", Value: int64(a)}
		}
		c.algorithm = a
		return nil
	}
}

// WithThreads caps worker goroutines; 0 (the default) uses GOMAXPROCS.
func WithThreads(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return &OptionError{Option: "WithThreads", Value: int64(n)}
		}
		c.threads = n
		return nil
	}
}

// WithNBins overrides the global bin count of the float64 PB kernel;
// 0 auto-sizes from flop and the L2 budget (Algorithm 3). Either way the
// kernel raises it until the packed key fits 32 bits, to at most 4 096 bins
// (a shape that needs more runs 16-byte tuples in the auto bins). Semiring
// and plain-masked multiplications always auto-size their bins and ignore
// this option (like WithLocalBinBytes and WithL2CacheBytes).
func WithNBins(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return &OptionError{Option: "WithNBins", Value: int64(n)}
		}
		c.nbins = n
		return nil
	}
}

// WithLocalBinBytes requests the thread-private local bin width in bytes
// (float64 PB kernel only; plain-masked/semiring paths ignore it); 0 means 1024,
// measured on every tuple layout against the paper's 512 (Fig. 6a). The
// engine runs the request rounded down to a multiple of 16 tuples of the
// run's layout — 1024 B is 64 tuples at 16 bytes, 80 at 12 — and any request
// under 16 tuples at 16, so that every steady-state flush moves whole cache
// lines.
func WithLocalBinBytes(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return &OptionError{Option: "WithLocalBinBytes", Value: int64(n)}
		}
		c.localBin = n
		return nil
	}
}

// WithL2CacheBytes sets the per-bin cache budget used to auto-size the bin
// count (float64 PB kernel only; plain-masked/semiring paths ignore it); 0
// means 1 MiB.
func WithL2CacheBytes(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return &OptionError{Option: "WithL2CacheBytes", Value: int64(n)}
		}
		c.l2Cache = n
		return nil
	}
}

// WithMemoryBudget caps the expanded-tuple working set in bytes: when the
// expansion would exceed it, PB's bins — row ranges of C — are cut into
// groups whose tuples each fit, and the product runs once per group. Every
// bin still folds once, so the bytes are the unbudgeted product's. 0 means
// unlimited (single shot).
func WithMemoryBudget(bytes int64) Option {
	return func(c *config) error {
		if bytes < 0 {
			return &OptionError{Option: "WithMemoryBudget", Value: bytes}
		}
		c.budget = bytes
		return nil
	}
}

// WithMask restricts the product structurally (GraphBLAS C⟨M⟩ = A·B): only
// positions where m stores an entry are kept. m's values are ignored; its
// shape must be rows(A)×cols(B). On every entry point and for every semiring
// a plain mask runs the row kernel (see MultiplyMasked); WithMask(nil) clears one.
func WithMask(m *CSR) Option {
	return func(c *config) error {
		c.mask, c.complement = m, false
		return nil
	}
}

// WithSemiringPlan asks MultiplyOver / EngineMultiplyOver to report how the
// call executed into *p: whether a typed fast path ran (Boolean → 4-byte
// pattern layout, float32/int32 arithmetic → 8-byte narrow, float64
// arithmetic → the 12-byte squeezed pipeline; the 16-byte wide one on shapes
// core.MultiplyLayout names) or what ran instead and why (the
// wide layout through the semiring's own ⊗ and ⊕, or the row kernel), with
// the pipeline's per-phase statistics in p.Stats. Pass nil to clear an earlier
// option.
func WithSemiringPlan(p *SemiringPlan) Option {
	return func(c *config) error {
		c.plan = p
		return nil
	}
}

// WithPlan hands an Auto call the plan Engine.Plan made for the same product and
// options, so that it runs the plan's Chosen kernel without planning again (a
// server plans once, for admission). The call reports the plan as Result.Plan
// and counts as an Auto pick. The plan is ignored under a plain mask, and
// unless it chose PB or SPA (SPA only without a memory budget) and its NNZA
// and NNZB are the operands'; a complement-masked call takes it as an
// unmasked one does. Auto's bytes never depend on its pick, so a stale plan
// costs time, never a different product. Semiring calls ignore it.
func WithPlan(p *Plan) Option {
	return func(c *config) error {
		c.autoPlan = p
		return nil
	}
}

// handedPlan reports whether the WithPlan plan may stand in for Auto's own
// planning of a·b.
func (c *config) handedPlan(a, b *CSR) bool {
	p := c.autoPlan
	return p != nil && p.NNZA == a.NNZ() && p.NNZB == b.NNZ() &&
		(p.Chosen == PB || p.Chosen == SPA && c.budget == 0)
}

// WithComplementMask is WithMask with the complemented mask ⟨¬M⟩: positions
// stored in m are dropped, all others kept. That keeps nearly the whole
// product, so the call is the product planned and run as an unmasked one —
// PB, SPA or Auto's pick, reported in Result.Algorithm, Result.Plan and the
// kernel's stats — with m's positions then dropped from it in one merge per
// row. Entries are folded in ascending k at every thread count and memory
// budget, so the bytes do not depend on the kernel.
func WithComplementMask(m *CSR) Option {
	return func(c *config) error {
		c.mask, c.complement = m, true
		return nil
	}
}

// WithContext attaches a context to package-level calls that have no
// explicit context parameter (MultiplyOver, MultiplyMasked, EWise helpers'
// multiplying callers). Cancellation and deadlines are observed at phase
// boundaries. Engine.Multiply's explicit context argument takes precedence
// over this option.
func WithContext(ctx context.Context) Option {
	return func(c *config) error {
		c.ctx = ctx
		return nil
	}
}
