//go:build faultinject

package pbspgemm

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/par"
)

// TestSPAWorkerPanicContained: a panic on one SPA worker, mid-product, comes
// back from Engine.Multiply as a *par.PanicError naming the injected site,
// counts in EngineMetrics.Panics, and costs the engine its workspace — the next
// call warms a new one up (it allocates its staging again) and is the product.
func TestSPAWorkerPanicContained(t *testing.T) {
	a, b := NewER(512, 16, 1), NewER(512, 16, 2)
	ctx := context.Background()
	for _, threads := range []int{1, 3} {
		eng, err := NewEngine(WithThreads(threads), WithAlgorithm(SPA))
		if err != nil {
			t.Fatal(err)
		}
		good, err := eng.Multiply(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.Plan{Site: faultinject.SiteColumnRow, Hit: 200, Worker: -1, Mode: faultinject.ModePanic})
		_, err = eng.Multiply(ctx, a, b)
		faultinject.Disarm()
		var pe *par.PanicError
		var fault faultinject.Fault
		if !errors.As(err, &pe) || !errors.As(err, &fault) || fault.Site != faultinject.SiteColumnRow {
			t.Fatalf("threads=%d: got %v, want a *par.PanicError carrying the column-row fault", threads, err)
		}
		if m := eng.Metrics(); m.Panics != 1 || m.Failures != 1 {
			t.Fatalf("threads=%d: metrics %+v, want one contained panic", threads, m)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		again, err := eng.Multiply(ctx, a, b)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBytes(good.C, again.C); err != nil {
			t.Fatalf("threads=%d: product after a contained panic: %v", threads, err)
		}
		if product := uint64(again.C.NNZ() * 12); m1.TotalAlloc-m0.TotalAlloc < 2*product {
			t.Fatalf("threads=%d: the call after the panic allocated %d B for a %d B product: the poisoned workspace was reused",
				threads, m1.TotalAlloc-m0.TotalAlloc, product)
		}
	}
}
