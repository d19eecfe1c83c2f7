package par

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// catchPanic runs fn and returns the *PanicError it re-raised, or nil.
func catchPanic(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		var ok bool
		if pe, ok = v.(*PanicError); !ok {
			t.Fatalf("re-raised panic is %T (%v), want *PanicError", v, v)
		}
	}()
	fn()
	return nil
}

func TestForRangesPanicTyped(t *testing.T) {
	for _, threads := range []int{1, 4} {
		pe := catchPanic(t, func() {
			ForRanges(64, threads, func(worker, lo, hi int) {
				if lo <= 17 && 17 < hi {
					panic("boom at 17")
				}
			})
		})
		if pe == nil {
			t.Fatalf("threads=%d: worker panic was swallowed", threads)
		}
		if pe.Value != "boom at 17" {
			t.Errorf("threads=%d: Value = %v, want boom at 17", threads, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("threads=%d: no stack captured", threads)
		}
		if !strings.Contains(pe.Error(), "panicked") {
			t.Errorf("threads=%d: Error() = %q", threads, pe.Error())
		}
	}
}

func TestForEachDynamicPanicStopsSiblings(t *testing.T) {
	const n, threads = 1 << 16, 4
	var executed atomic.Int64
	// Indices past the panicking one wait until the abort is latched, so the
	// test orders the panic before them instead of hoping a sleep does.
	stopped := make(chan struct{})
	latched = func() { close(stopped) }
	defer func() { latched = nil }()
	pe := catchPanic(t, func() {
		ForEachDynamic(n, threads, func(worker, i int) {
			if i == 3 {
				panic("early")
			}
			if i > 3 {
				select {
				case <-stopped:
				case <-time.After(10 * time.Second):
					t.Error("the abort was never latched")
				}
			}
			executed.Add(1)
		})
	})
	if pe == nil {
		t.Fatal("worker panic was swallowed")
	}
	// Siblings observe the stop flag at the next index claim: past the three
	// indices before the panic, each sibling runs at most the one it held.
	if got := executed.Load(); got > 3+threads-1 {
		t.Errorf("%d of %d indices ran after a panic; siblings did not stop", got, n)
	}
}

func TestParallelRunPanicTyped(t *testing.T) {
	for _, threads := range []int{1, 4} {
		pe := catchPanic(t, func() {
			ParallelRun(threads, func(worker int) {
				if worker == threads-1 {
					panic(errors.New("typed cause"))
				}
			})
		})
		if pe == nil {
			t.Fatalf("threads=%d: worker panic was swallowed", threads)
		}
		if pe.Worker != threads-1 {
			t.Errorf("threads=%d: Worker = %d, want %d", threads, pe.Worker, threads-1)
		}
		// A panic(error) keeps its errors.Is/As chain through Unwrap.
		if cause := errors.Unwrap(pe); cause == nil || cause.Error() != "typed cause" {
			t.Errorf("threads=%d: PanicError unwraps to %v, want typed cause", threads, cause)
		}
	}
}

func TestPrefixSumParallelPanicTyped(t *testing.T) {
	counts := make([]int64, prefixSumParallelCutoff+1)
	out := make([]int64, len(counts)+1)
	// Force a panic inside the ForRanges pass via an out-of-bounds write.
	pe := catchPanic(t, func() {
		PrefixSumParallel(counts, out[:1], 4)
	})
	if pe == nil {
		t.Fatal("out-of-bounds write in a prefix-sum worker was swallowed")
	}
}

func TestAsPanicError(t *testing.T) {
	if got := AsPanicError(nil, 0, "x"); got != nil {
		t.Errorf("AsPanicError(nil) = %v, want nil", got)
	}
	orig := &PanicError{Worker: 3, Value: "v"}
	got := AsPanicError(orig, -1, "fill")
	if got != orig {
		t.Errorf("existing PanicError was rewrapped")
	}
	if got.Phase != "fill" {
		t.Errorf("empty Phase not filled: %q", got.Phase)
	}
}

// TestPanicNoGoroutineLeak asserts a panicked parallel call leaves no
// workers behind.
func TestPanicNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		catchPanic(t, func() {
			ForEachDynamic(1024, 8, func(worker, i int) {
				if i == 100 {
					panic("leak check")
				}
			})
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after repeated panicked calls", before, runtime.NumGoroutine())
}
