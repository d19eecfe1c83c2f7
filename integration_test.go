package pbspgemm

// Integration tests: every algorithm against every workload family the
// paper's evaluation uses, plus determinism, stress and failure cases that
// cut across packages.

import (
	"fmt"
	"sync"
	"testing"

	"pbspgemm/internal/gen"
)

// workloads returns input pairs spanning the paper's workload families at
// test scale.
func workloads() map[string][2]*CSR {
	return map[string][2]*CSR{
		"ER_ef4":    {gen.ERMatrix(10, 4, 1), gen.ERMatrix(10, 4, 2)},
		"ER_ef16":   {gen.ERMatrix(9, 16, 3), gen.ERMatrix(9, 16, 4)},
		"RMAT_ef8":  {gen.RMAT(9, 8, gen.Graph500Params, 5), gen.RMAT(9, 8, gen.Graph500Params, 6)},
		"banded":    {gen.Banded(700, 6, 7), gen.Banded(700, 6, 8)},
		"rect_tall": {rectangular(500, 80, 2000, 9), rectangular(80, 300, 1500, 10)},
	}
}

func rectangular(rows, cols int32, nnz int, seed uint64) *CSR {
	r := gen.NewRNG(seed)
	coo := &COO{NumRows: rows, NumCols: cols}
	for e := 0; e < nnz; e++ {
		coo.Row = append(coo.Row, r.Intn(rows))
		coo.Col = append(coo.Col, r.Intn(cols))
		coo.Val = append(coo.Val, r.Float64())
	}
	return coo.ToCSR()
}

func TestIntegrationAllAlgorithmsAllWorkloads(t *testing.T) {
	for name, pair := range workloads() {
		a, b := pair[0], pair[1]
		want := Reference(a, b)
		for _, alg := range []Algorithm{PB, Heap, Hash, HashVec, SPA} {
			t.Run(name+"/"+alg.String(), func(t *testing.T) {
				res, err := multiply(a, b, WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				if err := res.C.Validate(); err != nil {
					t.Fatalf("invalid CSR: %v", err)
				}
				if !EqualWithin(want, res.C, 1e-9) {
					t.Fatal("result differs from reference")
				}
			})
		}
	}
}

func TestIntegrationSurrogatesSquareCorrectly(t *testing.T) {
	// Squaring every Table VI surrogate (small scale) with PB and Hash must
	// agree — the Fig. 11 experiment's correctness precondition.
	for _, s := range gen.Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := s.Generate(64, 1)
			pb, err := multiply(m, m)
			if err != nil {
				t.Fatal(err)
			}
			hash, err := multiply(m, m, WithAlgorithm(Hash))
			if err != nil {
				t.Fatal(err)
			}
			if !EqualWithin(pb.C, hash.C, 1e-9) {
				t.Fatal("PB and Hash disagree on surrogate")
			}
			if pb.CF < 1 {
				t.Fatalf("cf = %v < 1", pb.CF)
			}
		})
	}
}

func TestIntegrationDeterministic(t *testing.T) {
	// Single-threaded runs are bitwise deterministic. Multi-threaded runs
	// have deterministic *structure* (the sorted, deduplicated key set does
	// not depend on scheduling) but may sum equal-key tuples in different
	// orders, so values agree only up to floating-point associativity.
	a := gen.ERMatrix(10, 8, 11)
	b := gen.ERMatrix(10, 8, 12)
	first, err := multiply(a, b, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := multiply(a, b, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(first.C, again.C, 0) {
		t.Fatal("single-threaded runs not bitwise identical")
	}
	for _, threads := range []int{2, 4, 8} {
		res, err := multiply(a, b, WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(first.C, res.C, 1e-12) {
			t.Fatalf("threads=%d: result differs beyond rounding", threads)
		}
		// Structure must be identical regardless of scheduling.
		if res.C.NNZ() != first.C.NNZ() {
			t.Fatalf("threads=%d: nnz differs", threads)
		}
		for p := range res.C.ColIdx {
			if res.C.ColIdx[p] != first.C.ColIdx[p] {
				t.Fatalf("threads=%d: structure differs at %d", threads, p)
			}
		}
	}
}

func TestIntegrationConcurrentMultiplies(t *testing.T) {
	// The library must be safe for concurrent independent multiplications
	// (shared inputs, separate outputs).
	a := gen.ERMatrix(9, 8, 21)
	b := gen.ERMatrix(9, 8, 22)
	want := Reference(a, b)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			res, err := multiply(a, b, WithAlgorithm(alg), WithThreads(2))
			if err != nil {
				errs <- err
				return
			}
			if !EqualWithin(want, res.C, 1e-9) {
				errs <- fmt.Errorf("%v: concurrent result differs", alg)
			}
		}([]Algorithm{PB, Heap, Hash, HashVec}[g%4])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestIntegrationChainOfMultiplies(t *testing.T) {
	// (A·A)·A == A·(A·A): associativity across the library path — catches
	// canonical-form violations that single multiplications miss.
	a := gen.ERMatrix(8, 6, 31)
	aa, err := multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	left, err := multiply(aa.C, a)
	if err != nil {
		t.Fatal(err)
	}
	right, err := multiply(a, aa.C, WithAlgorithm(Hash))
	if err != nil {
		t.Fatal(err)
	}
	// Compare both against the reference for tolerance robustness.
	wantL := Reference(aa.C, a)
	wantR := Reference(a, aa.C)
	if !EqualWithin(wantL, left.C, 1e-9) {
		t.Fatal("(A·A)·A wrong")
	}
	if !EqualWithin(wantR, right.C, 1e-9) {
		t.Fatal("A·(A·A) wrong")
	}
}

func TestIntegrationHypersparse(t *testing.T) {
	// Hypersparse: far fewer nonzeros than rows (nnz << n). Exercises empty
	// rows/columns/bins throughout the pipeline.
	n := int32(1 << 14)
	coo := &COO{NumRows: n, NumCols: n}
	r := gen.NewRNG(77)
	for e := 0; e < 50; e++ {
		coo.Row = append(coo.Row, r.Intn(n))
		coo.Col = append(coo.Col, r.Intn(n))
		coo.Val = append(coo.Val, 1)
	}
	a := coo.ToCSR()
	want := Reference(a, a)
	for _, alg := range []Algorithm{PB, Heap, Hash, HashVec, SPA} {
		res, err := multiply(a, a, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !EqualWithin(want, res.C, 1e-9) {
			t.Fatalf("%v: hypersparse result differs", alg)
		}
	}
}

func TestIntegrationDenseSmall(t *testing.T) {
	// Fully dense 64x64: the cf-maximal extreme (cf = 64).
	n := int32(64)
	coo := &COO{NumRows: n, NumCols: n}
	r := gen.NewRNG(88)
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, r.Float64())
		}
	}
	a := coo.ToCSR()
	want := Reference(a, a)
	res, err := multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(want, res.C, 1e-9) {
		t.Fatal("dense square differs")
	}
	if res.CF != float64(n) {
		t.Fatalf("dense cf = %v, want %v", res.CF, n)
	}
}

func TestIntegrationExtremeBinOptions(t *testing.T) {
	a := gen.ERMatrix(9, 8, 41)
	want := Reference(a, a)
	for name, opt := range map[string]Option{
		"nbins=1":     WithNBins(1),               // single bin: ESC without blocking
		"nbins=1M":    WithNBins(1 << 20),         // more bins than rows: clamped
		"localbin=16": WithLocalBinBytes(16),      // one-tuple local bins
		"localbin=1M": WithLocalBinBytes(1 << 20), // local bins larger than global bins
		"l2=1K":       WithL2CacheBytes(1024),     // tiny cache budget => many bins
		"l2=1G":       WithL2CacheBytes(1 << 30),  // huge budget => single bin
	} {
		res, err := multiply(a, a, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !EqualWithin(want, res.C, 1e-9) {
			t.Fatalf("%s: result differs", name)
		}
	}
}
