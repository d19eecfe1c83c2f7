package serve

import (
	"math"
	"testing"

	"pbspgemm"
)

// goldenMatrices are the fixed inputs of TestHashMatrixGolden: generated
// matrices of both families, a rectangular one, an empty one and one whose
// values are the special floats (NaN, ±0, ±Inf), whose bits the id covers.
func goldenMatrices() map[string]*pbspgemm.CSR {
	special := pbspgemm.NewER(16, 2, 5)
	for i, v := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		special.Val[i] = v
	}
	return map[string]*pbspgemm.CSR{
		"er-128-4-1":  pbspgemm.NewER(128, 4, 1),
		"er-4096-8-7": pbspgemm.NewER(4096, 8, 7),
		"rmat-10-8-3": pbspgemm.NewRMAT(10, 8, 3),
		"rect-3x5": {NumRows: 3, NumCols: 5,
			RowPtr: []int64{0, 2, 2, 3}, ColIdx: []int32{1, 4, 0}, Val: []float64{1.5, -2, 3}},
		"empty-7x0": {NumRows: 7, RowPtr: make([]int64, 8)},
		"special":   special,
	}
}

// TestHashMatrixGolden: content ids are the SHA-256 of the binary format's
// bytes, so they must not move across versions: a peer running another build,
// or a client holding an id from an earlier upload, dedupes against them.
func TestHashMatrixGolden(t *testing.T) {
	want := map[string]string{
		"er-128-4-1":  "7d3c9480c539e3d38d07eae46415f4c7ca4384518077901e820adaa683c0b30b",
		"er-4096-8-7": "18681164a7b5447350bd00b5d6195d3867a73f34c8f12da9009ec3b456028514",
		"rmat-10-8-3": "93590d2a745d308816704f28916fa05c6d343e69f76b2eb09ee285331a4784b8",
		"rect-3x5":    "ed53f39895af6d0b5a1492eedfd89d73e56d625a735fa4449422896631c53d43",
		"empty-7x0":   "43ddda6c4b84de41acc5fa99199fbaafff988830f2d47c4b09279ff135c14d7c",
		"special":     "e42f7ae10ab520e3494fb34cdab78bb6878204b9a086e248bc9221d38ba6723f",
	}
	for name, m := range goldenMatrices() {
		if got := HashMatrix(m); got != want[name] {
			t.Errorf("%s: id %s, want %s", name, got, want[name])
		}
	}
}
