package pbspgemm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pbspgemm/internal/gen"
)

// sparseWhere is a rows×cols matrix of up to nnz random entries, kept only
// where keep(i, j) holds: a way to leave whole rows or columns empty.
func sparseWhere(rows, cols int32, nnz int, seed uint64, keep func(i, j int32) bool) *CSR {
	r := gen.NewRNG(seed)
	coo := &COO{NumRows: rows, NumCols: cols}
	for e := 0; e < nnz; e++ {
		if i, j := r.Intn(rows), r.Intn(cols); keep(i, j) {
			coo.Row, coo.Col, coo.Val = append(coo.Row, i), append(coo.Col, j), append(coo.Val, r.Float64()-0.5)
		}
	}
	return coo.ToCSR()
}

// TestEveryKernelMatchesHashBaseline is the per-algorithm equivalence matrix:
// every Algorithm, Auto included, is checked against the hash baseline and
// Reference on ER and R-MAT inputs and on adversarial shapes — A or B with no
// entries, empty rows and columns, 1×n·n×1 and n×1·1×n — both on a fresh
// Engine and on a pooled workspace's second call. PB and SPA, and so Auto, give
// the same bytes.
func TestEveryKernelMatchesHashBaseline(t *testing.T) {
	type tc struct {
		name string
		a, b *CSR
	}
	var cases []tc
	for _, seed := range []uint64{1, 42} {
		cases = append(cases, tc{
			name: fmt.Sprintf("ER/n512/d6/seed%d", seed),
			a:    NewER(512, 6, seed),
			b:    NewER(512, 6, seed+1000),
		})
	}
	all := func(i, j int32) bool { return true }
	cases = append(cases,
		tc{name: "RMAT/s9/ef8", a: gen.RMAT(9, 8, gen.Graph500Params, 3), b: gen.RMAT(9, 8, gen.Graph500Params, 1003)},
		tc{name: "ER/rect", a: NewER(256, 4, 5), b: NewER(256, 4, 6)},
		tc{name: "empty/A", a: sparseWhere(64, 48, 0, 1, all), b: sparseWhere(48, 80, 300, 2, all)},
		tc{name: "empty/B", a: sparseWhere(64, 48, 300, 3, all), b: sparseWhere(48, 80, 0, 4, all)},
		tc{name: "empty/both", a: sparseWhere(64, 48, 0, 5, all), b: sparseWhere(48, 80, 0, 6, all)},
		tc{name: "empty-rows-and-cols",
			a: sparseWhere(200, 150, 900, 7, func(i, j int32) bool { return i%3 != 0 && j%4 != 0 }),
			b: sparseWhere(150, 130, 900, 8, func(i, j int32) bool { return i%5 != 0 && j%2 == 0 })},
		tc{name: "1xn*nx1", a: sparseWhere(1, 300, 600, 9, all), b: sparseWhere(300, 1, 600, 10, all)},
		tc{name: "nx1*1xn", a: sparseWhere(300, 1, 600, 11, all), b: sparseWhere(1, 300, 600, 12, all)},
	)
	for _, c := range cases {
		want, err := multiply(c.a, c.b, WithAlgorithm(Hash))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(Reference(c.a, c.b), want.C, 1e-9) {
			t.Fatalf("%s: HashSpGEMM differs from Reference", c.name)
		}
		wantFlops := Flops(c.a, c.b)
		got := map[Algorithm]*CSR{}
		for alg := PB; alg <= Auto; alg++ {
			t.Run(c.name+"/"+alg.String(), func(t *testing.T) {
				res, err := multiply(c.a, c.b, WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				if err := res.C.Validate(); err != nil {
					t.Fatal(err)
				}
				if !EqualWithin(want.C, res.C, 1e-9) {
					t.Fatal("result differs from HashSpGEMM")
				}
				if res.Flops != wantFlops {
					t.Errorf("flops %d, want %d", res.Flops, wantFlops)
				}
				if wantFlops > 0 && res.Elapsed <= 0 {
					t.Error("non-positive Elapsed")
				}
				got[alg] = res.C
				if alg == Auto {
					return
				}
				// A pooled workspace's second call: buffers sized by the first.
				ws, cfg := newWorkspace(), config{}
				for range 2 {
					pooled, _, _, err := ws.run(&cfg, alg, c.a, c.b)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBytes(res.C, pooled); err != nil {
						t.Fatalf("pooled workspace differs from a fresh engine: %v", err)
					}
				}
				// Pin the squeezed path: every fixture with products has a
				// small key geometry, so PB must have run — and report — the
				// 12-byte layout.
				if alg == PB && wantFlops > 0 && (res.PB.Layout != LayoutSqueezed || res.PB.TupleBytes != 12) {
					t.Fatalf("PB run did not report the squeezed layout: %+v", res.PB)
				}
			})
		}
		for _, alg := range []Algorithm{SPA, Auto} {
			if got[PB] == nil || got[alg] == nil {
				continue // its subtest failed
			}
			if err := sameBytes(got[PB], got[alg]); err != nil {
				t.Fatalf("%s: %v is not PB bit for bit: %v", c.name, alg, err)
			}
		}
	}
}

// TestKernelSteadyStateAllocs: every kernel runs with zero steady-state
// allocations on a warm pooled workspace, single-threaded.
func TestKernelSteadyStateAllocs(t *testing.T) {
	a := NewER(400, 6, 1)
	b := NewER(400, 6, 2)
	cfg, err := resolve(nil, []Option{WithThreads(1)})
	if err != nil {
		t.Fatal(err)
	}
	for alg := PB; alg < Auto; alg++ {
		t.Run(alg.String(), func(t *testing.T) {
			ws := newWorkspace()
			run := func() {
				if _, _, _, err := ws.run(&cfg, alg, a, b); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Fatalf("steady-state %v allocated %.1f times per call, want 0", alg, allocs)
			}
		})
	}
}

// TestKernelCancellation: an already-canceled context aborts every algorithm
// at its first phase boundary (Auto before it plans).
func TestKernelCancellation(t *testing.T) {
	a := NewER(256, 5, 7)
	b := NewER(256, 5, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for alg := PB; alg <= Auto; alg++ {
		t.Run(alg.String(), func(t *testing.T) {
			eng, err := NewEngine(WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Multiply(ctx, a, b); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled multiply returned %v, want context.Canceled", err)
			}
		})
	}
}

// TestKernelResultPooled: on a workspace the product aliases pooled memory,
// which the workspace's next call overwrites; a fresh engine's result is the
// same product.
func TestKernelResultPooled(t *testing.T) {
	a := NewER(128, 4, 1)
	b := NewER(128, 4, 2)
	ws, cfg := newWorkspace(), config{}
	c1, _, _, err := ws.run(&cfg, Hash, a, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := c1.Clone()
	a2 := NewER(128, 6, 3)
	if _, _, _, err := ws.run(&cfg, Hash, a2, a2); err != nil {
		t.Fatal(err)
	}
	if EqualWithin(keep, c1, 0) {
		t.Fatal("pooled result was not reused by the next call (aliasing contract changed?)")
	}
	fresh, err := multiply(a, b, WithAlgorithm(Hash))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(keep, fresh.C, 0) {
		t.Fatal("a fresh engine's product differs from the pooled one")
	}
}

// TestDetachOutputHandsOver: DetachOutput makes a pooled result caller-owned
// without copying it — same backing arrays, a header of its own — and the
// workspace's next call regrows its output pool instead of overwriting what
// it handed over. A product the pool no longer owns comes back unchanged.
func TestDetachOutputHandsOver(t *testing.T) {
	a := NewER(128, 4, 1)
	b := NewER(128, 4, 2)
	a2 := NewER(128, 6, 3)
	want := Reference(a, b)
	for alg := PB; alg < Auto; alg++ {
		t.Run(alg.String(), func(t *testing.T) {
			ws, cfg := newWorkspace(), config{}
			pooled, _, _, err := ws.run(&cfg, alg, a, b)
			if err != nil {
				t.Fatal(err)
			}
			col0, val0 := &pooled.ColIdx[0], &pooled.Val[0]
			c := ws.DetachOutput(pooled)
			if &c.ColIdx[0] != col0 || &c.Val[0] != val0 {
				t.Fatal("DetachOutput copied the product instead of handing it over")
			}
			if c == pooled {
				t.Fatal("detached result still is the pooled header")
			}
			if again := ws.DetachOutput(c); again != c {
				t.Fatal("a result the pool no longer owns must come back unchanged")
			}
			if _, _, _, err := ws.run(&cfg, alg, a2, a2); err != nil {
				t.Fatal(err)
			}
			if !EqualWithin(want, c, 1e-9) {
				t.Fatal("detached result was clobbered by the workspace's next call")
			}
		})
	}
}
