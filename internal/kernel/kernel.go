// Package kernel defines the uniform interface every SpGEMM implementation
// in this repository is served through, plus the registry the public
// Engine's planner enumerates. The Engine stopped being a hard-coded switch
// over algorithms and became a planner over this registry: each kernel
// declares its capabilities (masking, memory budgeting, cancellation,
// workspace reuse), multiplies through a pooled Workspace, and reports
// per-call statistics, so pooling, context cancellation and metrics work
// identically for PB-SpGEMM and for every column baseline.
package kernel

import (
	"context"
	"fmt"
	"time"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
)

// Capabilities declares what a kernel supports beyond plain multiplication.
type Capabilities struct {
	// Masked kernels can apply a structural mask during output formation.
	Masked bool
	// Budgeted kernels honor Opts.MemoryBudgetBytes by tiling.
	Budgeted bool
	// Cancellable kernels poll ctx at phase boundaries; others only observe
	// an already-expired ctx at the call boundary.
	Cancellable bool
	// WorkspaceReusing kernels run with zero steady-state allocations on a
	// shared Workspace.
	WorkspaceReusing bool
	// SqueezedTuples kernels shrink expanded tuples to 12 bytes (a uint32
	// key and a float64 value in parallel arrays) whenever the run's bin
	// geometry keeps localRowBits + colBits ≤ 32, and report the layout used
	// on their stats. The planner models such kernels' tuple traffic at the
	// per-run cost (12 or 16 bytes); column kernels never move expanded
	// tuples and keep the paper's 16-byte model.
	SqueezedTuples bool
	// FusedCompress kernels run the fused sort→compress→assemble pipeline
	// by default: the sort's last pass folds duplicates in cache (a budgeted
	// run's gathered runs go through the same fold), so the planner models
	// their tuple traffic with the fused roofline bound (one fewer per-tuple
	// term in the denominator; roofline.AIOuterFusedExact).
	FusedCompress bool
	// NarrowTuples kernels offer the 8-byte narrow layout (uint32 key +
	// 4-byte value) for float32/int32 workloads through the typed entry
	// points (core.MultiplyNarrow, semiring.Arithmetic32/ArithmeticInt32),
	// subject to the same 32-bit key-geometry rule as SqueezedTuples.
	NarrowTuples bool
	// PatternTuples kernels offer the 4-byte pattern (key-only) layout for
	// structural products — the Boolean semiring and any multiply whose
	// values are never read (core.MultiplyPattern).
	PatternTuples bool
}

// Opts is the per-call tuning a kernel receives. Kernels ignore fields
// outside their capability set (e.g. column kernels ignore the PB bin
// geometry).
type Opts struct {
	Threads           int
	NBins             int
	LocalBinBytes     int
	L2CacheBytes      int
	MemoryBudgetBytes int64
}

// Result is one multiplication's outcome. When the call ran on a non-nil
// Workspace, C and the phase-stats pointers alias workspace memory and are
// invalidated by the workspace's next call — take C with
// Workspace.DetachOutput (or Clone it) and copy the stats to keep them.
type Result struct {
	C       *matrix.CSR
	Flops   int64
	NNZC    int64
	CF      float64
	Elapsed time.Duration
	// PB holds the phase breakdown of PB-structured runs, else nil.
	PB *core.Stats
	// Baseline holds the two-phase breakdown of column runs, else nil.
	Baseline *baseline.Stats
}

// Workspace bundles the pooled buffers of both engine families, so one
// pooled object serves whichever kernel the planner picks. Fields are
// created lazily; a nil *Workspace runs every kernel with transient
// buffers.
type Workspace struct {
	Core *core.Workspace
	Col  *baseline.Workspace

	// PlanScratch pools the Auto planner's O(cols(B)) symbolic marker, so
	// steady-state planned calls stay allocation-free like everything else.
	PlanScratch []int32

	// res pools the Result header itself, so steady-state kernel calls on a
	// shared workspace allocate nothing at all.
	res Result
}

// NewWorkspace returns a workspace with both sub-pools ready.
func NewWorkspace() *Workspace {
	return &Workspace{Core: core.NewWorkspace(), Col: baseline.NewWorkspace()}
}

// coreWS returns the PB-engine pool (lazily created), or nil for transient
// calls.
func (w *Workspace) coreWS() *core.Workspace {
	if w == nil {
		return nil
	}
	if w.Core == nil {
		w.Core = core.NewWorkspace()
	}
	return w.Core
}

// colWS returns the column-engine pool (lazily created), or nil for
// transient calls.
func (w *Workspace) colWS() *baseline.Workspace {
	if w == nil {
		return nil
	}
	if w.Col == nil {
		w.Col = baseline.NewWorkspace()
	}
	return w.Col
}

// result returns the Result to fill: pooled when the workspace is shared.
func (w *Workspace) result() *Result {
	if w == nil {
		return &Result{}
	}
	w.res = Result{}
	return &w.res
}

// DetachOutput makes a Result's C caller-owned without copying it: whichever
// sub-pool holds c as its pooled result hands the arrays over and forgets
// them (regrowing on its next call); a c no pool owns is returned unchanged.
// The Result's stats pointers still alias the workspace.
func (w *Workspace) DetachOutput(c *matrix.CSR) *matrix.CSR {
	if w == nil {
		return c
	}
	if w.Core != nil {
		c = w.Core.DetachOutput(c)
	}
	if w.Col != nil {
		c = w.Col.DetachOutput(c)
	}
	return c
}

// Kernel is one SpGEMM implementation. Multiply computes C = A*B for
// canonical CSR inputs (kernels needing CSC convert internally through the
// workspace's pooled conversion), observing ctx according to Capabilities.
type Kernel interface {
	// Name returns the kernel's canonical name as used in the paper (and by
	// pbspgemm.Algorithm.String).
	Name() string
	Capabilities() Capabilities
	Multiply(ctx context.Context, ws *Workspace, a, b *matrix.CSR, opt Opts) (*Result, error)
}

// The registry. Kernels register from init; lookups after init are
// lock-free reads.
var (
	kernels []Kernel
	byName  = make(map[string]Kernel)
)

// Register adds k under its name; duplicate names are a programming error.
func Register(k Kernel) {
	name := k.Name()
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate registration of %q", name))
	}
	byName[name] = k
	kernels = append(kernels, k)
}

// Get returns the kernel registered under name.
func Get(name string) (Kernel, bool) {
	k, ok := byName[name]
	return k, ok
}

// All returns the registered kernels in registration order.
func All() []Kernel {
	out := make([]Kernel, len(kernels))
	copy(out, kernels)
	return out
}

// cancelOf adapts ctx to the engines' phase-boundary cancellation hook;
// nil when the context can never be canceled, so the hot path pays nothing.
func cancelOf(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}
