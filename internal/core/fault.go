package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// This file is the engine's fault-containment and sub-phase cancellation
// layer.
//
// Containment: every parallel worker body defers containWorker, so a panic
// in one worker (an out-of-range index, an injected fault) becomes a
// *par.PanicError on the engine's abort latch instead of a dead process; the
// sibling workers see the raised stop flag at their next poll and drain, the
// phase joins, and the run returns the typed error. Panics that unwind on
// the calling goroutine itself (single-threaded paths, sequential sections,
// or a rethrow from the par primitives) are converted by runContained's
// recover at the entry point. Either way the workspace is poisoned: the next
// run on it starts from a pristine (fully reset) state, so partial phase
// state can never corrupt a later multiplication.
//
// Cancellation: so that a deadline never waits out a whole phase, the long
// loops poll through pollCancel — every ~cancelPollTuples tuples in expand
// and entries in the cut of A (cutA), per bin in fuse and assemble. A raised
// stop flag (set by the first poll to see the cancellation, or by a panic)
// costs the others one atomic load. The polls stay off the batched inner
// loops, which keeps the bench gate's ≤1% overhead budget.

// cancelPollTuples is the expand phase's cancellation granularity: a worker
// re-polls Options.Cancel after at most this many expanded tuples. With one
// column of A as the smallest unit between checks, the documented
// cancellation latency bound is the work of cancelPollTuples tuples plus one
// column's outer product (plus scheduling noise) — microseconds to low
// milliseconds, never a whole phase.
const cancelPollTuples = 1 << 16

// latchAbort records the first abort reason — a cancellation error or a
// worker's *par.PanicError — and raises the stop flag every sub-phase loop
// polls. Concurrent workers race benignly: abortLatch elects one writer,
// which publishes abortErr before the abortSeen release store, so any reader
// that observes the flag also observes the error. (Plain uint32s with
// atomic functions, not sync/atomic types: the engine is reset by struct
// assignment in newEngine, which copylocks would reject.)
func (e *engine) latchAbort(err error) {
	if err == nil {
		return
	}
	if atomic.CompareAndSwapUint32(&e.abortLatch, 0, 1) {
		e.abortErr = err
		atomic.StoreUint32(&e.abortSeen, 1)
	}
}

// stopping reports whether a worker should abandon its sub-phase loop: one
// atomic load, cheap enough for per-bin and per-task checks.
func (e *engine) stopping() bool { return atomic.LoadUint32(&e.abortSeen) != 0 }

// pollCancel is the sub-phase cancellation check: the stop flag first (so
// siblings drain promptly once anyone latched), then the caller's Cancel
// hook. Returns true when the worker should return; the phase join's
// canceled() reports the latched reason.
func (e *engine) pollCancel() bool {
	if e.stopping() {
		return true
	}
	if e.opt.Cancel == nil {
		return false
	}
	if err := e.opt.Cancel(); err != nil {
		e.latchAbort(err)
		return true
	}
	return false
}

// abortedErr returns the latched abort reason, nil when none. Valid on the
// calling goroutine after a phase join (the join is the happens-before for
// abortErr; mid-phase workers only ever read the flag).
func (e *engine) abortedErr() error {
	if atomic.LoadUint32(&e.abortSeen) != 0 {
		return e.abortErr
	}
	return nil
}

// wrapCancel annotates a cancellation error with the phase it interrupted,
// wrapping with %w so errors.Is(err, context.DeadlineExceeded) — and any
// other sentinel the caller's Cancel hook returns — keeps working end-to-end
// from an HTTP deadline through the kernel's sub-phase polls. Panic errors
// pass through untouched: they are already typed and phase-annotated.
func (e *engine) wrapCancel(err error) error {
	var pe *par.PanicError
	if errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("core: multiply canceled in %s phase: %w", e.phase, err)
}

// containWorker is deferred at the top of every parallel worker body. A
// panic becomes the abort latch's *par.PanicError — annotated with the
// worker id and current phase — so siblings drain at their next poll and the
// phase join returns an error; without it the panic would unwind to the
// par primitives' recover, which cannot stop a static-range sibling early.
func (e *engine) containWorker(worker int) {
	if v := recover(); v != nil {
		e.latchAbort(par.AsPanicError(v, worker, e.phase))
	}
}

// runContained is every entry point's body: run the engine and convert any
// panic that reached this frame (sequential sections, single-threaded loops,
// or a rethrow from par) into the same typed error the worker-level
// containment produces. On a panic the workspace is poisoned — the next run
// on it resets to pristine before trusting any pooled plane.
func (e *engine) runContained() (c *matrix.CSR, st *Stats, err error) {
	defer func() {
		if pe := par.AsPanicError(recover(), -1, e.phase); pe != nil {
			c, st, err = nil, nil, e.poisonOnPanic(pe)
		}
	}()
	c0, err0 := e.run()
	if err0 != nil {
		// A worker panic absorbed by the containment latch is surfaced as an
		// error by the phase joins rather than a stack unwind. The errors.As
		// target lives inside the branch so the zero-alloc steady state
		// (err0 == nil) never pays its escape-analysis heap allocation.
		var pe *par.PanicError
		if errors.As(err0, &pe) {
			return nil, nil, e.poisonOnPanic(pe)
		}
	}
	return e.finish(c0, err0)
}

// poisonOnPanic marks the workspace and drops the caller references that
// finish() would have cleared (finish never ran on this path — the inputs
// must not stay pinned by a pooled workspace).
func (e *engine) poisonOnPanic(pe *par.PanicError) error {
	e.ws.poisoned = true
	e.dropRefs()
	return pe
}

// Poisoned reports whether the workspace's last run panicked. Pool owners
// may discard such a workspace outright; reusing it is also safe — newEngine
// fully resets a poisoned workspace before the next run touches it.
func (ws *Workspace) Poisoned() bool { return ws.poisoned }
