package pbspgemm

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// multiply runs one product on a fresh Engine, so on a new workspace.
func multiply(a, b *CSR, opts ...Option) (*Result, error) {
	eng, err := NewEngine()
	if err != nil {
		return nil, err
	}
	return eng.Multiply(context.Background(), a, b, opts...)
}

func TestPublicMultiplyAllAlgorithms(t *testing.T) {
	a := NewER(256, 6, 1)
	b := NewER(256, 6, 2)
	want := Reference(a, b)
	for _, alg := range []Algorithm{PB, Heap, Hash, HashVec, SPA} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := multiply(a, b, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if !EqualWithin(want, res.C, 1e-9) {
				t.Fatal("result differs from reference")
			}
			if res.Flops != Flops(a, b) {
				t.Errorf("flops %d, want %d", res.Flops, Flops(a, b))
			}
			if res.CF < 1 {
				t.Errorf("cf %v < 1", res.CF)
			}
			if res.GFLOPS() <= 0 {
				t.Error("non-positive GFLOPS")
			}
			if alg == PB && res.PB == nil {
				t.Error("PB run missing phase stats")
			}
			if alg != PB && res.Baseline == nil {
				t.Error("baseline run missing stats")
			}
		})
	}
}

// TestPublicWorkspaceAndBudget exercises the execution-engine options
// through the public API: repeated multiplications on one engine's pooled
// workspace, with and without a memory budget, stay correct and report their
// bin groups, and the budgeted product is the unbudgeted one's bytes.
func TestPublicWorkspaceAndBudget(t *testing.T) {
	a := NewER(512, 6, 3)
	b := NewER(512, 6, 4)
	want := Reference(a, b)
	eng, err := NewEngine(WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var full *CSR
	for i := 0; i < 3; i++ {
		res, err := eng.Multiply(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(want, res.C, 1e-9) {
			t.Fatalf("iteration %d: pooled result differs from reference", i)
		}
		if res.PB.NGroups != 1 {
			t.Fatalf("unbudgeted run cut into %d bin groups", res.PB.NGroups)
		}
		full = res.C
	}
	res, err := eng.Multiply(ctx, a, b, WithMemoryBudget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(full, res.C, 0) {
		t.Fatal("budgeted result differs from the unbudgeted one")
	}
	if res.PB.NGroups < 2 {
		t.Fatalf("expected bin groups under a 32 KiB budget, got %d", res.PB.NGroups)
	}
}

func TestPublicSquare(t *testing.T) {
	a := NewRMAT(8, 4, 3)
	res, err := multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(Reference(a, a), res.C, 1e-9) {
		t.Fatal("square differs from reference")
	}
}

func TestPublicShapeError(t *testing.T) {
	a := NewER(16, 2, 1)
	b := NewER(32, 2, 2)
	if _, err := multiply(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestPublicUnknownAlgorithm(t *testing.T) {
	a := NewER(16, 2, 1)
	if _, err := multiply(a, a, WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm must still print")
	}
}

// TestParseAlgorithm: every Algorithm has one short name, which parses back to
// it in any case; the names of the removed algorithms and unknown names fail.
func TestParseAlgorithm(t *testing.T) {
	names := map[Algorithm]string{PB: "pb", Heap: "heap", Hash: "hash", HashVec: "hashvec", SPA: "spa", Auto: "auto"}
	for alg := PB; alg <= Auto; alg++ {
		name, ok := names[alg]
		if !ok {
			t.Fatalf("%v has no name in this table", alg)
		}
		for _, s := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, err := ParseAlgorithm(s); err != nil || got != alg {
				t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, alg)
			}
		}
	}
	for _, s := range []string{"", "esc", "outerheap", "gustavson", "pb "} {
		if _, err := ParseAlgorithm(s); err == nil {
			t.Fatalf("ParseAlgorithm(%q) accepted an unknown name", s)
		}
	}
}

func TestPublicMatrixMarketRoundTrip(t *testing.T) {
	a := NewER(64, 3, 9)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(a, back, 0) {
		t.Fatal("round trip changed matrix")
	}
}

func TestPredictGFLOPS(t *testing.T) {
	// ER-like profile: nnzA=nnzB=nnzC=n*d, flop=cf*nnzC with cf=1 gives the
	// paper's 1/80 AI: at 40 GB/s the prediction is 0.5 GFLOPS.
	var nnz int64 = 1 << 20
	got := PredictGFLOPS(40, nnz, nnz, nnz, nnz)
	// Exact model: flop/(nnzA+nnzB+2flop+nnzC)/16*40 = 40/(5*16) = 0.5.
	if got < 0.49 || got > 0.51 {
		t.Fatalf("prediction = %v, want ~0.5", got)
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 4 || algs[0] != PB {
		t.Fatalf("Algorithms() = %v", algs)
	}
}

func TestMeasureBandwidthSmall(t *testing.T) {
	if beta := MeasureBandwidth(1<<16, 2); beta <= 0 {
		t.Fatal("bandwidth must be positive")
	}
}
