package pbspgemm

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pbspgemm/internal/core"
)

// sameCSC reports whether two CSCs agree in shape, structure and value bits.
func sameCSC(x, y *CSC) bool {
	if x.NumRows != y.NumRows || x.NumCols != y.NumCols ||
		!slices.Equal(x.ColPtr, y.ColPtr) || !slices.Equal(x.RowIdx, y.RowIdx) || len(x.Val) != len(y.Val) {
		return false
	}
	for i := range x.Val {
		if math.Float64bits(x.Val[i]) != math.Float64bits(y.Val[i]) {
			return false
		}
	}
	return true
}

// memoHits reads the workspace's unexported CSC-memo hit counter.
func memoHits(ws *core.Workspace) int64 {
	return reflect.ValueOf(ws).Elem().FieldByName("csc").FieldByName("hits").Int()
}

// TestCSCMemoNeverStale: Workspace.CSCOf remembers its last conversion of A
// (matrix.CSCMemo) and hands it back only for a bit-equal A. An A mutated in
// place between two calls on one engine, a reshaped A, a reset or poisoned
// workspace all convert afresh; an equal-content clone does not; and no
// route that takes A through CSCOf writes into the memoized CSC.
func TestCSCMemoNeverStale(t *testing.T) {
	ctx := context.Background()
	// One P, so the engine's pool hands its workspace back (under -race it
	// sometimes drops it); threads = 2 still runs two workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, threads := range []int{1, 2} {
		a, b := NewER(400, 6, 1), NewER(400, 6, 2)

		// One engine, A mutated in place between calls.
		eng, err := NewEngine(WithThreads(threads), WithAlgorithm(PB))
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			t.Helper()
			res, err := eng.Multiply(ctx, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(Reference(a, b), res.C) {
				t.Fatalf("threads=%d, %s: product differs from Reference", threads, what)
			}
		}
		for range 3 {
			check("repeated A")
		}
		a.Val[5] = -3 * a.Val[5]
		check("A.Val mutated in place")
		for q := range a.ColIdx { // the first entry that can move one column left and stay sorted
			if a.ColIdx[q]--; a.Validate() == nil {
				break
			}
			a.ColIdx[q]++
		}
		check("A.ColIdx mutated in place")

		// A held workspace, where the memo's counter can be read.
		ws := core.NewWorkspace()
		hit := func(what string, x *CSR, want bool) {
			t.Helper()
			h := memoHits(ws)
			if got := ws.CSCOf(x); !sameCSC(got, x.ToCSC()) {
				t.Fatalf("threads=%d, %s: CSCOf differs from ToCSC", threads, what)
			}
			if got := memoHits(ws) > h; got != want {
				t.Fatalf("threads=%d, %s: hit = %v, want %v", threads, what, got, want)
			}
		}
		hit("first arrival", a, false)
		hit("second arrival (snapshot)", a, false)
		hit("third arrival", a, true)
		hit("equal-content clone", a.Clone(), true)
		reshaped := *a
		reshaped.NumCols++
		hit("reshaped A over the same arrays", &reshaped, false)
		hit("A again", a, false)
		hit("A again (snapshot)", a, true)
		ws.Reset()
		hit("after Reset", a, false)

		// A poisoned workspace resets before converting, reset by hand or not.
		poison := func() {
			t.Helper()
			hit("warm", a, false)
			hit("warm", a, true)
			polls := 0
			boom := func() error {
				if polls++; polls >= 3 {
					panic("injected via cancel hook")
				}
				return nil
			}
			if _, _, err := core.Multiply(ws.CSCOf(a), b, core.Options{Threads: threads, Workspace: ws, Cancel: boom}); err == nil || !ws.Poisoned() {
				t.Fatalf("threads=%d: injected panic did not poison the workspace (err %v)", threads, err)
			}
		}
		poison()
		hit("poisoned workspace", a, false)
		poison()
		ws.Reset()
		hit("poisoned workspace after Reset", a, false)

		// Every route that takes A through CSCOf leaves the memo intact.
		want := Reference(a, b)
		mask := NewER(400, 3, 3)
		kw := &workspace{Core: ws}
		via := func(opts ...Option) func() (*CSR, error) {
			cfg, err := resolve(nil, append(opts, WithThreads(threads)))
			if err != nil {
				t.Fatal(err)
			}
			return func() (*CSR, error) {
				c, _, _, err := kw.run(&cfg, PB, a, b)
				return c, err
			}
		}
		for _, route := range []struct {
			name string
			want *CSR
			run  func() (*CSR, error)
		}{
			{"PB", want, via()},
			{"budgeted PB", want, via(WithMemoryBudget(64 << 10))},
			{"complement mask", maskCSR(want, mask, true), via(WithComplementMask(mask))},
		} {
			c, err := route.run()
			if err != nil {
				t.Fatalf("threads=%d, %s: %v", threads, route.name, err)
			}
			if !EqualWithin(route.want, c, 1e-12) {
				t.Fatalf("threads=%d, %s: product differs from Reference", threads, route.name)
			}
			hit("after the "+route.name+" route", a, true)
		}
	}
}
