//go:build faultinject

package core

// The chaos suite: deterministic fault injection (internal/faultinject,
// compiled in by the faultinject build tag) drives worker panics, slow
// workers and forced cancellations into every instrumented site of the
// pipeline, asserting the containment contract each time — typed error, no
// goroutine leak, and the next multiply on the same pooled workspace
// bit-identical to a fresh one.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

func chaosInputs() (*matrix.CSC, *matrix.CSR) {
	a := gen.ER(1024, 8, 21)
	b := gen.ER(1024, 8, 22)
	return a.ToCSC(), b
}

// runChaos executes one multiply under opt and returns its error.
func runChaos(mul multiplyFunc, acsc *matrix.CSC, b *matrix.CSR, opt Options) error {
	_, _, err := mul(acsc, b, opt)
	return err
}

// TestChaosSiteMatrix arms a panic at every in-kernel fault site across
// layouts, thread counts and budgets. Whenever the site fires for a
// configuration, the run must return a *par.PanicError; afterwards the same
// pooled workspace must serve a bit-identical product.
func TestChaosSiteMatrix(t *testing.T) {
	acsc, b := chaosInputs()
	sites := []faultinject.Site{
		faultinject.SiteExpandColumn, faultinject.SiteSortTask,
		faultinject.SiteFoldBin, faultinject.SiteAssembleBin, faultinject.SiteGrow,
	}
	type cfg struct {
		name  string
		mul   multiplyFunc
		opt   Options
		fires []faultinject.Site // sites the configuration must reach
	}
	// The oversized configurations put the whole product in one bin far past
	// the L2 budget, which one of four workers folds whole.
	oversized := []faultinject.Site{faultinject.SiteSortTask, faultinject.SiteFoldBin}
	cfgs := []cfg{
		{"generic-t1", multiplyGeneric, Options{Threads: 1}, nil},
		{"generic-t4", multiplyGeneric, Options{Threads: 4}, nil},
		{"squeezed-t4", Multiply, Options{Threads: 4}, nil},
		{"oversized-t4", multiplyGeneric, Options{Threads: 4, NBins: 1, L2CacheBytes: 4096}, oversized},
		{"oversized-t4-squeezed", Multiply, Options{Threads: 4, NBins: 1, L2CacheBytes: 4096}, oversized},
		{"budgeted-t1", Multiply, Options{Threads: 1, MemoryBudgetBytes: 1 << 18}, nil},
		{"budgeted-t4", Multiply, Options{Threads: 4, MemoryBudgetBytes: 1 << 18}, nil},
	}
	before := runtime.NumGoroutine()
	for _, c := range cfgs {
		want, _, err := c.mul(acsc, b, c.opt)
		if err != nil {
			t.Fatalf("%s: clean run: %v", c.name, err)
		}
		for _, site := range sites {
			t.Run(c.name+"/"+site.String(), func(t *testing.T) {
				ws := NewWorkspace()
				opt := c.opt
				opt.Workspace = ws

				faultinject.Arm(faultinject.Plan{
					Site: site, Hit: 1, Worker: -1, Mode: faultinject.ModePanic})
				err := runChaos(c.mul, acsc, b, opt)
				fired := faultinject.Hits(site) > 0
				faultinject.Disarm()

				if !fired {
					if slices.Contains(c.fires, site) {
						t.Fatalf("site %v never fired", site)
					}
					// This configuration never reaches the site; the run
					// must just succeed.
					if err != nil {
						t.Fatalf("site not reached but run failed: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatal("injected panic did not surface as an error")
				}
				var pe *par.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("error is not a *par.PanicError: %v", err)
				}
				var fault faultinject.Fault
				if !errors.As(err, &fault) || fault.Site != site {
					t.Fatalf("PanicError does not unwrap to the injected Fault: %v", err)
				}
				if !ws.Poisoned() {
					t.Fatal("workspace not poisoned after injected panic")
				}

				got, _, err := c.mul(acsc, b, opt)
				if err != nil {
					t.Fatalf("reuse after injected panic: %v", err)
				}
				if !csrBitIdentical(want, got) {
					t.Fatal("reused workspace after injected panic differs from fresh")
				}
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines: %d before chaos matrix, %d after", before, g)
	}
}

// TestChaosSlowWorker injects a sleeping worker: the run must still complete
// correctly (slow, not wrong).
func TestChaosSlowWorker(t *testing.T) {
	acsc, b := chaosInputs()
	want, _, err := Multiply(acsc, b, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteSortTask, Hit: 1, Worker: -1,
		Mode: faultinject.ModeSleep, SleepNanos: int64(50 * time.Millisecond)})
	got, _, err := Multiply(acsc, b, Options{Threads: 4})
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if !csrBitIdentical(want, got) {
		t.Fatal("slow worker changed the result")
	}
}

// TestChaosForcedCancellation uses ModeCall to flip a cancellation flag from
// inside a phase loop, asserting the forced cancel surfaces like any other.
func TestChaosForcedCancellation(t *testing.T) {
	acsc, b := chaosInputs()
	var tripped atomic.Bool
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteExpandColumn, Hit: 64, Worker: -1,
		Mode: faultinject.ModeCall,
		Fn:   func(faultinject.Site, int) { tripped.Store(true) }})
	_, _, err := Multiply(acsc, b, Options{Threads: 4, Cancel: func() error {
		if tripped.Load() {
			return context.Canceled
		}
		return nil
	}})
	faultinject.Disarm()
	if !tripped.Load() {
		t.Fatal("injection callback never ran")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("forced cancellation: err = %v", err)
	}
}

// FuzzFaultSites drives PlanFromSeed: arbitrary (site, hit) panic plans must
// always yield either a clean result or a typed error, and the pooled
// workspace must recover to bit-identical output either way.
func FuzzFaultSites(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 0x1234, 0xdeadbeef, 1 << 40} {
		f.Add(seed)
	}
	acsc, b := chaosInputs()
	want, _, err := Multiply(acsc, b, Options{Threads: 4, MemoryBudgetBytes: 1 << 18})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		ws := NewWorkspace()
		opt := Options{Threads: 4, MemoryBudgetBytes: 1 << 18, Workspace: ws}
		faultinject.Arm(faultinject.PlanFromSeed(seed))
		err := runChaos(Multiply, acsc, b, opt)
		faultinject.Disarm()
		if err != nil {
			var pe *par.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("seed %#x: non-typed error: %v", seed, err)
			}
		}
		got, _, err := Multiply(acsc, b, opt)
		if err != nil {
			t.Fatalf("seed %#x: reuse run: %v", seed, err)
		}
		if !csrBitIdentical(want, got) {
			t.Fatalf("seed %#x: reused workspace differs from fresh", seed)
		}
	})
}
