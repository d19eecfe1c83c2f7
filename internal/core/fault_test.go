package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// cancelInputs is a low-cf ER product large enough that the expand phase
// alone spans many cancelPollTuples windows (~5M flops against the 64Ki-tuple
// poll granularity), so a cancellation raised mid-phase must be observed by
// a sub-phase poll, not a phase boundary.
func cancelInputs(t *testing.T) (*matrix.CSC, *matrix.CSR) {
	t.Helper()
	a := gen.ER(8192, 24, 11)
	b := gen.ER(8192, 24, 12)
	return a.ToCSC(), b
}

// waitNoLeak retries the goroutine count: cancelled workers drain at their
// next poll, slightly after Multiply returns.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancelled multiply", before, runtime.NumGoroutine())
}

// TestExpandPollsSubPhase pins the poll granularity itself: a counting-only
// Cancel hook must be consulted many more times than the handful of phase
// boundaries a run has, proving the polls sit inside the long loops.
func TestExpandPollsSubPhase(t *testing.T) {
	acsc, b := cancelInputs(t)
	var polls atomic.Int64
	opt := Options{Threads: 1, Cancel: func() error { polls.Add(1); return nil }}
	if _, _, err := multiplyGeneric(acsc, b, opt); err != nil {
		t.Fatal(err)
	}
	// A phase-boundary-only implementation polls ~5 times (plan, expand,
	// sort, compress, assemble). ~5M expand tuples / 64Ki per poll plus the
	// per-bin checks put the sub-phase count far above that.
	if n := polls.Load(); n < 20 {
		t.Errorf("Cancel polled %d times over a ~5M-flop product; expected sub-phase granularity (> 20)", n)
	}
}

// TestCancellationLatencyMidPhase cancels mid-run across every tuple layout
// and thread count: the multiply must return the wrapped hook error promptly
// (bounded by the poll granularity, asserted with a generous wall-clock
// ceiling), keep the errors.Is chain to context.DeadlineExceeded intact, and
// leave no worker goroutines behind. Under a budget the third poll falls in
// the cut of A, before any group expands, so the cut must poll too.
func TestCancellationLatencyMidPhase(t *testing.T) {
	acsc, b := cancelInputs(t)
	aval32 := make([]float32, len(acsc.RowIdx))
	bval32 := make([]float32, len(b.ColIdx))

	type layoutCase struct {
		name  string
		run   func(opt Options) error
		phase string // the phase the cancellation must land in, if fixed
	}
	layouts := []layoutCase{
		{"wide", func(opt Options) error {
			_, _, err := multiplyGeneric(acsc, b, opt)
			return err
		}, ""},
		{"squeezed", func(opt Options) error {
			_, _, err := Multiply(acsc, b, opt)
			return err
		}, ""},
		{"narrow", func(opt Options) error {
			_, _, _, err := multiplyNarrow(acsc, aval32, b, bval32, opt)
			return err
		}, ""},
		{"pattern", func(opt Options) error {
			_, _, err := MultiplyPattern(acsc, b, opt)
			return err
		}, ""},
		{"squeezed-budgeted", func(opt Options) error {
			opt.MemoryBudgetBytes = 1 << 20
			_, _, err := Multiply(acsc, b, opt)
			return err
		}, "plan"},
	}
	for _, lc := range layouts {
		for _, threads := range []int{1, 2, 8} {
			t.Run(lc.name+"/threads="+string(rune('0'+threads)), func(t *testing.T) {
				before := runtime.NumGoroutine()
				var polls atomic.Int64
				var firedAt atomic.Int64 // wall clock of the first error return
				cancel := func() error {
					// Trip on the 3rd poll: past planning, inside expand's
					// poll windows on this input size.
					if polls.Add(1) >= 3 {
						firedAt.CompareAndSwap(0, time.Now().UnixNano())
						return context.DeadlineExceeded
					}
					return nil
				}
				err := lc.run(Options{Threads: threads, Cancel: cancel})
				returned := time.Now().UnixNano()
				if err == nil {
					t.Fatal("cancelled multiply returned nil error")
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("errors.Is(err, DeadlineExceeded) = false; err = %v", err)
				}
				if !strings.Contains(err.Error(), "canceled in "+lc.phase) {
					t.Errorf("error not annotated with the %q phase: %v", lc.phase, err)
				}
				if at := firedAt.Load(); at != 0 {
					if lat := time.Duration(returned - at); lat > 5*time.Second {
						t.Errorf("cancellation latency %v exceeds bound", lat)
					}
				}
				waitNoLeak(t, before)
			})
		}
	}
}

// TestBudgetedCancellation cancels the budgeted path (bin groups) mid-run;
// polls sit per bin in every group's fold and assemble.
func TestBudgetedCancellation(t *testing.T) {
	acsc, b := cancelInputs(t)
	for _, threads := range []int{1, 4} {
		var polls atomic.Int64
		cancel := func() error {
			if polls.Add(1) >= 5 {
				return context.DeadlineExceeded
			}
			return nil
		}
		_, _, err := Multiply(acsc, b, Options{
			Threads: threads, MemoryBudgetBytes: 1 << 20, Cancel: cancel})
		if err == nil {
			t.Fatalf("threads=%d: cancelled budgeted multiply returned nil error", threads)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("threads=%d: sentinel lost: %v", threads, err)
		}
	}
}

// TestWorkspaceReuseAfterCancel is the reuse-after-failure guarantee for
// cancellation: a workspace whose run was cancelled mid-phase serves the
// next multiply bit-identically to a fresh workspace.
func TestWorkspaceReuseAfterCancel(t *testing.T) {
	acsc, b := cancelInputs(t)
	for _, tc := range []struct {
		name   string
		mul    multiplyFunc
		budget int64
	}{
		{"wide", multiplyGeneric, 0},
		{"squeezed", Multiply, 0},
		{"wide-budgeted", multiplyGeneric, 1 << 20},
		{"squeezed-budgeted", Multiply, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := tc.mul(acsc, b, Options{Threads: 2, MemoryBudgetBytes: tc.budget})
			if err != nil {
				t.Fatal(err)
			}

			ws := NewWorkspace()
			var polls atomic.Int64
			cancel := func() error {
				if polls.Add(1) >= 3 {
					return context.Canceled
				}
				return nil
			}
			_, _, err = tc.mul(acsc, b, Options{Threads: 2,
				MemoryBudgetBytes: tc.budget, Workspace: ws, Cancel: cancel})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v", err)
			}
			if ws.Poisoned() {
				t.Fatal("cancellation must not poison the workspace (only panics do)")
			}

			got, _, err := tc.mul(acsc, b, Options{Threads: 2,
				MemoryBudgetBytes: tc.budget, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !csrBitIdentical(want, got) {
				t.Fatal("multiply on a workspace that hosted a cancelled run differs from fresh")
			}
		})
	}
}

// TestContainedPanicTyped pins the containment contract without the
// faultinject tag: a panic planted through the Cancel hook (called from
// inside the phase loops) surfaces as a *par.PanicError-wrapped error, the
// workspace is poisoned, and reusing it is bit-identical to fresh.
func TestContainedPanicTyped(t *testing.T) {
	acsc, b := cancelInputs(t)
	want, _, err := Multiply(acsc, b, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 8} {
		ws := NewWorkspace()
		var polls atomic.Int64
		boom := func() error {
			if polls.Add(1) >= 3 {
				panic("injected via cancel hook")
			}
			return nil
		}
		_, _, err := Multiply(acsc, b, Options{Threads: threads, Workspace: ws, Cancel: boom})
		if err == nil {
			t.Fatalf("threads=%d: panicked multiply returned nil error", threads)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("threads=%d: error not a contained panic: %v", threads, err)
		}
		if !ws.Poisoned() {
			t.Fatalf("threads=%d: workspace not poisoned after a panic", threads)
		}
		got, _, err := Multiply(acsc, b, Options{Threads: threads, Workspace: ws})
		if err != nil {
			t.Fatalf("threads=%d: reuse after panic: %v", threads, err)
		}
		if ws.Poisoned() {
			t.Fatalf("threads=%d: poison flag not cleared by the reset run", threads)
		}
		if !csrBitIdentical(want, got) {
			t.Fatalf("threads=%d: multiply on a workspace that hosted a panicked run differs from fresh", threads)
		}
	}
}
