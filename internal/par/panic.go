package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what a worker panic becomes: the pool primitives in this
// package recover panics inside their workers, abort the siblings, and
// re-raise the first capture as a typed *PanicError on the calling goroutine
// once every worker has drained. Layers above (internal/core, internal/kernel)
// convert it into an ordinary error on Multiply, so one out-of-range index in
// one worker of one request can never take down a process that serves many.
type PanicError struct {
	// Worker is the id of the worker goroutine that panicked, or -1 when the
	// panic happened on the calling goroutine (sequential fallbacks, setup).
	Worker int
	// Phase names the pipeline phase that hosted the panic ("expand",
	// "sort", ...). Filled by the first layer that knows it; empty from the
	// raw primitives.
	Phase string
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time —
	// the calling goroutine's own stack no longer contains the fault.
	Stack []byte
}

func (e *PanicError) Error() string {
	phase := e.Phase
	if phase == "" {
		phase = "parallel section"
	}
	return fmt.Sprintf("par: worker %d panicked in %s: %v", e.Worker, phase, e.Value)
}

// Unwrap exposes panic(err) values to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsPanicError converts a recover() value into a *PanicError, capturing the
// current stack. A value that already is one passes through (gaining phase if
// it had none); nil returns nil, so the helper can be called unconditionally
// on recover()'s result.
func AsPanicError(v any, worker int, phase string) *PanicError {
	if v == nil {
		return nil
	}
	if pe, ok := v.(*PanicError); ok {
		if pe.Phase == "" {
			pe.Phase = phase
		}
		return pe
	}
	return &PanicError{Worker: worker, Phase: phase, Value: v, Stack: debug.Stack()}
}

// guard is the per-call panic collector the pool primitives share: workers run
// under run(), the first panic is kept and the abort flag stops the siblings
// at their next scheduling point, and the caller re-raises it typed after the
// join. One guard serves one primitive invocation.
type guard struct {
	aborted atomic.Bool
	mu      sync.Mutex
	first   *PanicError
}

// run executes fn, converting a panic into a capture instead of letting it
// kill the process (a panic that unwinds past a goroutine's root is fatal no
// matter who recovers elsewhere).
func (g *guard) run(worker int, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			g.capture(worker, v)
		}
	}()
	fn()
}

// capture latches the abort first: a sibling polling stop() while the stack
// is captured would otherwise drain the rest of a cheap range.
func (g *guard) capture(worker int, v any) {
	g.aborted.Store(true)
	if latched != nil {
		latched()
	}
	pe := AsPanicError(v, worker, "")
	g.mu.Lock()
	if g.first == nil {
		g.first = pe
	}
	g.mu.Unlock()
}

// latched, when set, runs once the abort is observable: a test's ordering point.
var latched func()

// stop reports whether a sibling has panicked; scheduling loops poll it so an
// aborted call drains promptly instead of finishing the remaining work.
func (g *guard) stop() bool { return g.aborted.Load() }

// rethrow re-raises the first captured panic, typed, on the calling
// goroutine. Must run after the workers have joined (wg.Wait establishes the
// happens-before for first). No-op if nothing panicked.
func (g *guard) rethrow() {
	if g.first != nil {
		panic(g.first)
	}
}

// protect runs fn on the calling goroutine, converting a raw panic into the
// same typed *PanicError the pooled paths raise — the single-threaded
// fallbacks fail identically to parallel runs, so callers need one recovery
// path, not two.
func protect(worker int, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			panic(AsPanicError(v, worker, ""))
		}
	}()
	fn()
}
