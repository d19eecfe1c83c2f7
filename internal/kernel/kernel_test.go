package kernel

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// TestRegistryComplete: every implementation in the repository is
// registered exactly once under its paper name.
func TestRegistryComplete(t *testing.T) {
	want := []string{NamePB, NameHeap, NameHash, NameHashVec, NameSPA, NameOuterHeap, NameColumnESC}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d kernels, want %d", len(all), len(want))
	}
	for _, name := range want {
		k, ok := Get(name)
		if !ok {
			t.Fatalf("kernel %q not registered", name)
		}
		if k.Name() != name {
			t.Fatalf("kernel registered under %q reports name %q", name, k.Name())
		}
	}
	if _, ok := Get("NoSuchKernel"); ok {
		t.Fatal("Get returned a kernel for an unknown name")
	}
	// Capability sanity: PB is the only masked/budgeted/squeezed-tuple
	// kernel (column kernels never move expanded tuples, so their modeled
	// costs must stay at the paper's 16 bytes); every kernel except the
	// dismissed naive outer-product reuses workspaces and polls
	// cancellation.
	for _, k := range all {
		caps := k.Capabilities()
		if (caps.Masked || caps.Budgeted || caps.SqueezedTuples) && k.Name() != NamePB {
			t.Errorf("%s claims masked/budgeted/squeezed capability", k.Name())
		}
		if k.Name() != NameOuterHeap && (!caps.Cancellable || !caps.WorkspaceReusing) {
			t.Errorf("%s should be cancellable and workspace-reusing: %+v", k.Name(), caps)
		}
	}
	if pb, _ := Get(NamePB); !pb.Capabilities().SqueezedTuples {
		t.Error("PB kernel must declare the squeezed tuple layout")
	}
}

// TestEveryKernelMatchesHashBaseline is the per-algorithm equivalence
// matrix: every registered kernel (including SPA and ColumnESC) is
// cross-checked against the hash baseline on ER and R-MAT inputs, both
// through a shared workspace and transiently.
func TestEveryKernelMatchesHashBaseline(t *testing.T) {
	type tc struct {
		name string
		a, b *matrix.CSR
	}
	var cases []tc
	for _, seed := range []uint64{1, 42} {
		cases = append(cases, tc{
			name: fmt.Sprintf("ER/n512/d6/seed%d", seed),
			a:    gen.ER(512, 6, seed),
			b:    gen.ER(512, 6, seed+1000),
		})
	}
	cases = append(cases,
		tc{name: "RMAT/s9/ef8", a: gen.RMAT(9, 8, gen.Graph500Params, 3), b: gen.RMAT(9, 8, gen.Graph500Params, 1003)},
		tc{name: "ER/rect", a: gen.ER(256, 4, 5), b: gen.ER(256, 4, 6)},
	)
	ctx := context.Background()
	for _, c := range cases {
		want, _, err := baseline.Hash(c.a, c.b, baseline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantFlops := matrix.FlopsCSR(c.a, c.b)
		for _, k := range All() {
			t.Run(c.name+"/"+k.Name(), func(t *testing.T) {
				for _, ws := range []*Workspace{NewWorkspace(), nil} {
					r, err := k.Multiply(ctx, ws, c.a, c.b, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if !matrix.Equal(want, r.C, 1e-9) {
						t.Fatalf("ws=%v: result differs from HashSpGEMM", ws != nil)
					}
					if r.Flops != wantFlops {
						t.Errorf("flops %d, want %d", r.Flops, wantFlops)
					}
					if r.NNZC != want.NNZ() {
						t.Errorf("nnzC %d, want %d", r.NNZC, want.NNZ())
					}
					if r.Elapsed <= 0 {
						t.Error("non-positive Elapsed")
					}
					// Pin the squeezed path: every fixture here has a small
					// key geometry, so the PB kernel must have run — and
					// report — the 12-byte layout.
					if k.Name() == NamePB {
						if r.PB == nil || r.PB.Layout != core.LayoutSqueezed || r.PB.TupleBytes != core.SqueezedTupleBytes {
							t.Fatalf("PB run did not report the squeezed layout: %+v", r.PB)
						}
					}
				}
			})
		}
	}
}

// TestKernelSteadyStateAllocs: the regression the registry port is for —
// workspace-reusing kernels (PB and the hash baseline alike) run with zero
// steady-state allocations on a shared workspace, single-threaded.
func TestKernelSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1)
	b := gen.ER(400, 6, 2)
	ctx := context.Background()
	for _, k := range All() {
		if !k.Capabilities().WorkspaceReusing {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			ws := NewWorkspace()
			opt := Opts{Threads: 1}
			if _, err := k.Multiply(ctx, ws, a, b, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := k.Multiply(ctx, ws, a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocated %.1f times per call, want 0", k.Name(), allocs)
			}
		})
	}
}

// TestKernelCancellation: an already-canceled context aborts every kernel
// (cancellable ones at a phase boundary, the rest at the call boundary).
func TestKernelCancellation(t *testing.T) {
	a := gen.ER(256, 5, 7)
	b := gen.ER(256, 5, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range All() {
		t.Run(k.Name(), func(t *testing.T) {
			if _, err := k.Multiply(ctx, NewWorkspace(), a, b, Opts{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled multiply returned %v, want context.Canceled", err)
			}
		})
	}
}

// TestKernelResultPooled: on a shared workspace the Result and C alias
// pooled memory (invalidated by the next call), while a nil workspace
// returns caller-owned storage.
func TestKernelResultPooled(t *testing.T) {
	a := gen.ER(128, 4, 1)
	b := gen.ER(128, 4, 2)
	ctx := context.Background()
	k, _ := Get(NameHash)
	ws := NewWorkspace()
	r1, err := k.Multiply(ctx, ws, a, b, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	keep := r1.C.Clone()
	a2 := gen.ER(128, 6, 3)
	if _, err := k.Multiply(ctx, ws, a2, a2, Opts{}); err != nil {
		t.Fatal(err)
	}
	if matrix.Equal(keep, r1.C, 0) {
		t.Fatal("pooled result was not reused by the next call (aliasing contract changed?)")
	}
	r3, err := k.Multiply(ctx, nil, a, b, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(keep, r3.C, 0) {
		t.Fatal("transient call differs from pooled call")
	}
}

// TestDetachOutputHandsOver: DetachOutput makes a pooled result caller-owned
// without copying it — same backing arrays, a header of its own — and the
// workspace's next call regrows its output pool instead of overwriting what
// it handed over. Kernels whose result was never pooled (the naive
// outer-product, any call on a nil workspace) get their C back unchanged.
func TestDetachOutputHandsOver(t *testing.T) {
	a := gen.ER(128, 4, 1)
	b := gen.ER(128, 4, 2)
	a2 := gen.ER(128, 6, 3)
	want := matrix.ReferenceMultiply(a, b)
	ctx := context.Background()
	for _, k := range All() {
		t.Run(k.Name(), func(t *testing.T) {
			ws := NewWorkspace()
			r, err := k.Multiply(ctx, ws, a, b, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			pooled, col0, val0 := r.C, &r.C.ColIdx[0], &r.C.Val[0]
			c := ws.DetachOutput(r.C)
			if &c.ColIdx[0] != col0 || &c.Val[0] != val0 {
				t.Fatal("DetachOutput copied the product instead of handing it over")
			}
			if k.Capabilities().WorkspaceReusing && c == pooled {
				t.Fatal("detached result still is the pooled header")
			}
			if again := ws.DetachOutput(c); again != c {
				t.Fatal("a result the pool no longer owns must come back unchanged")
			}
			if _, err := k.Multiply(ctx, ws, a2, a2, Opts{}); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(want, c, 1e-9) {
				t.Fatal("detached result was clobbered by the workspace's next call")
			}
		})
	}
	var none *Workspace
	if c := none.DetachOutput(want); c != want {
		t.Fatal("nil workspace must return its argument")
	}
}
