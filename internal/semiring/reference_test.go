package semiring

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// referenceOver is the oracle that shares nothing with the implementation: a
// map accumulator per output row, A walked by rows so the products of an entry
// arrive in ascending k, the first one assigned and each later one folded in
// with sr.Plus, then the mask. No budget changes that order.
func referenceOver[T any](sr Semiring[T], a, b *CSRg[T], mask *matrix.CSR, complement bool) *CSRg[T] {
	c := &CSRg[T]{NumRows: a.NumRows, NumCols: b.NumCols, RowPtr: make([]int64, a.NumRows+1)}
	for r := int32(0); r < a.NumRows; r++ {
		acc := map[int32]T{}
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			k := a.ColIdx[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				col, v := b.ColIdx[q], sr.Times(a.Val[p], b.Val[q])
				if sum, ok := acc[col]; ok {
					v = sr.Plus(sum, v)
				}
				acc[col] = v
			}
		}
		cols := make([]int32, 0, len(acc))
		for col := range acc {
			stored := false
			if mask != nil {
				row := mask.ColIdx[mask.RowPtr[r]:mask.RowPtr[r+1]]
				i := sort.Search(len(row), func(i int) bool { return row[i] >= col })
				stored = i < len(row) && row[i] == col
			}
			if mask == nil || stored != complement {
				cols = append(cols, col)
			}
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, col := range cols {
			c.ColIdx = append(c.ColIdx, col)
			c.Val = append(c.Val, acc[col])
		}
		c.RowPtr[r+1] = int64(len(c.ColIdx))
	}
	return c
}

// sameAsReference holds got to the oracle: structure, and every value under eq.
func sameAsReference[T any](t *testing.T, what string, got, want *CSRg[T], eq func(a, b T) bool) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !sameStructureG(want, got) {
		t.Fatalf("%s: structure differs from referenceOver (%d entries, want %d)", what, got.NNZ(), want.NNZ())
	}
	for i := range want.Val {
		if !eq(got.Val[i], want.Val[i]) {
			t.Fatalf("%s: value[%d] = %v, referenceOver has %v", what, i, got.Val[i], want.Val[i])
		}
	}
}

func equal[T comparable](a, b T) bool { return a == b }
func sameBits(a, b float64) bool      { return math.Float64bits(a) == math.Float64bits(b) }

// storesFalse reports whether v is Boolean and stores a false value, which
// keeps a product off the structural pattern layout.
func storesFalse[T any](v []T) bool {
	bs, ok := any(v).([]bool)
	return ok && slices.Contains(bs, false)
}

// overTable multiplies a·b over sr through MultiplyOpts — unmasked and under a
// complement mask, at 1, 2 and 7 threads, unbudgeted and under budgets of a
// third and a ninth of its wide tuples, on fresh buffers and on ws — and holds
// every product to referenceOver. Every one of these runs internal/core's
// pipeline, the complement-masked ones too (the mask is dropped from the
// product afterwards), so every one must report the Stats of the unmasked
// product, cut into bin groups exactly when its tuples pass the budget, on
// the typed layout exactly when sr is a typed stock pair over values it takes.
func overTable[T any](t *testing.T, sr Semiring[T], a, b, mask *matrix.CSR, lift func(float64) T,
	eq func(a, b T) bool, ws *core.Workspace) {

	t.Helper()
	ar, br := FromCSR(a, lift), FromCSR(b, lift)
	ac := ar.ToCSC()
	flops := Flops(ac, br)
	nnzc := referenceOver(sr, ar, br, nil, true).NNZ()
	typed := typedStock(sr) && !storesFalse(ar.Val) && !storesFalse(br.Val)
	for _, m := range []*matrix.CSR{nil, mask} {
		want := referenceOver(sr, ar, br, m, true)
		for _, parts := range []int64{1, 3, 9} {
			var budget int64
			if parts > 1 {
				budget = flops * 16 / parts
			}
			for _, threads := range []int{1, 2, 7} {
				for _, pool := range []*core.Workspace{nil, ws} {
					what := fmt.Sprintf("%s, complement mask %v, budget %d, %d threads, pooled %v",
						sr.Name, m != nil, budget, threads, pool != nil)
					var p Plan
					got, err := MultiplyOpts(sr, ac, br, Options{Threads: threads, MemoryBudgetBytes: budget,
						Workspace: pool, Mask: m, Complement: true, Plan: &p})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameAsReference(t, what, got, want, eq)
					if p.Stats == nil || (p.Stats.NGroups > 1) != (flops*p.Stats.TupleBytes > budget && budget > 0) ||
						p.Stats.NNZC != nnzc {
						t.Fatalf("%s: plan %+v with stats %+v", what, p, p.Stats)
					}
					if p.FastPath != typed || (p.Stats.Layout == core.LayoutWide) == typed {
						t.Fatalf("%s: plan %+v ran the %v layout, want typed %v", what, p, p.Stats.Layout, typed)
					}
				}
			}
		}
	}
}

// TestEverySemiringMatchesReference is the table: the seven stock semirings
// (and the four fast-path ones once more with their functions wrapped, through the
// wide layout) on integer-valued inputs, where every fold is exact; then the
// float64 ones on inputs of mixed magnitude, where the result shows the order
// of the fold — defined since the wide layout sorts stably: ascending k, at
// every thread count and budget, pooled or not.
func TestEverySemiringMatchesReference(t *testing.T) {
	a, b, mask := intCSR(gen.ER(160, 6, 41)), intCSR(gen.ER(160, 6, 42)), gen.ER(160, 40, 43)
	ws := core.NewWorkspace()
	id := func(v float64) float64 { return v }
	f32 := func(v float64) float32 { return float32(v) }
	i32 := func(v float64) int32 { return int32(v) }
	truth := func(v float64) bool { return v > 2 } // stored false values too
	overTable(t, Arithmetic(), a, b, mask, id, equal[float64], ws)
	overTable(t, opaque(Arithmetic()), a, b, mask, id, equal[float64], ws)
	overTable(t, Arithmetic32(), a, b, mask, f32, equal[float32], ws)
	overTable(t, opaque(Arithmetic32()), a, b, mask, f32, equal[float32], ws)
	overTable(t, ArithmeticInt32(), a, b, mask, i32, equal[int32], ws)
	overTable(t, opaque(ArithmeticInt32()), a, b, mask, i32, equal[int32], ws)
	overTable(t, Boolean(), a, b, mask, func(float64) bool { return true }, equal[bool], ws)
	overTable(t, Boolean(), a, b, mask, truth, equal[bool], ws)
	overTable(t, MinPlus(), a, b, mask, id, equal[float64], ws)
	overTable(t, MaxTimes(), a, b, mask, id, equal[float64], ws)
	overTable(t, PlusMax(), a, b, mask, id, equal[float64], ws)

	// Denser, so that an entry folds four products on average and a panel
	// boundary regroups a sum.
	a, b, mask = gen.ER(48, 14, 44), gen.ER(48, 14, 45), gen.ER(48, 12, 46)
	for i := range a.Val {
		a.Val[i] = (float64(i%13) - 4.75) * math.Pow(10, float64(i%5))
		b.Val[i%len(b.Val)] = (float64(i%7) + 1.3) * 30011
	}
	overTable(t, Arithmetic(), a, b, mask, id, sameBits, ws)
	overTable(t, opaque(Arithmetic()), a, b, mask, id, sameBits, ws)
	overTable(t, MinPlus(), a, b, mask, id, sameBits, ws)
	overTable(t, MaxTimes(), a, b, mask, id, sameBits, ws)
	overTable(t, PlusMax(), a, b, mask, id, sameBits, ws)
}
