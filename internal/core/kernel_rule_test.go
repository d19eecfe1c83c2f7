package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
)

// forceKernel pins the per-bin rule for one test: every fused bin folds
// dense (where the accumulator cap allows) or every bin sorts.
func forceKernel(t *testing.T, dense bool) {
	cold, warm := denseSlotsPerTuple, warmSlotsPerTuple
	t.Cleanup(func() { denseSlotsPerTuple, warmSlotsPerTuple = cold, warm })
	denseSlotsPerTuple, warmSlotsPerTuple = 0, 0
	if dense {
		denseSlotsPerTuple, warmSlotsPerTuple = 1<<20, 1<<20
	}
}

// product is a layout-agnostic result: the structure plus the bit patterns of
// the value plane (nil for pattern). Every NaN maps to one pattern: which
// operand's payload x+y keeps is the instruction's choice, not the fold's.
type product struct {
	c    *matrix.CSR
	bits []uint64
}

// cloneStructure copies a result's structure out of pooled memory (CSR.Clone
// sizes by Val, which the narrow and pattern results do not carry).
func cloneStructure(c *matrix.CSR) *matrix.CSR {
	return &matrix.CSR{NumRows: c.NumRows, NumCols: c.NumCols,
		RowPtr: append([]int64(nil), c.RowPtr...), ColIdx: append([]int32(nil), c.ColIdx...)}
}

func valueBits[V radix.Numeric](vals []V) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		switch f := float64(v); {
		case f != f:
			out[i] = math.MaxUint64
		default:
			out[i] = math.Float64bits(f) // exact for float32 and int32 too
		}
	}
	return out
}

func (p product) same(q product) bool {
	if !csrSameStructure(p.c, q.c) || len(p.bits) != len(q.bits) {
		return false
	}
	for i := range p.bits {
		if p.bits[i] != q.bits[i] {
			return false
		}
	}
	return true
}

// layoutRunner multiplies one fixed (A, B) pair through one key32 layout.
type layoutRunner struct {
	name string
	run  func(opt Options) (product, error)
}

func narrowRunner[V narrowValue](name string, a *matrix.CSC, b *matrix.CSR) layoutRunner {
	av, bv := narrowPlanes[V](a, b)
	return layoutRunner{name, func(opt Options) (product, error) {
		c, vals, _, err := multiplyNarrow(a, av, b, bv, opt)
		if err != nil {
			return product{}, err
		}
		return product{cloneStructure(c), valueBits(vals)}, nil
	}}
}

func key32Runners(a *matrix.CSC, b *matrix.CSR) []layoutRunner {
	return []layoutRunner{
		{"squeezed", func(opt Options) (product, error) {
			c, st, err := Multiply(a, b, opt)
			if err != nil {
				return product{}, err
			}
			if st.Layout != LayoutSqueezed {
				return product{}, fmt.Errorf("ran %v, want squeezed", st.Layout)
			}
			return product{cloneStructure(c), valueBits(c.Val)}, nil
		}},
		narrowRunner[float32]("narrow-f32", a, b),
		narrowRunner[int32]("narrow-i32", a, b),
		{"pattern", func(opt Options) (product, error) {
			c, _, err := MultiplyPattern(a, b, opt)
			if err != nil {
				return product{}, err
			}
			return product{cloneStructure(c), nil}, nil
		}},
	}
}

// foldRunners is every layout a fold can run on: the key32 ones plus the
// generic layout through MultiplyGeneric — over float64 (+, ×), and over a
// value that is not 8 bytes — under the ids "wide" and "wide-f32" (see
// float64Layouts).
func foldRunners(a *matrix.CSC, b *matrix.CSR) []layoutRunner {
	av, bv := narrowPlanes[float32](a, b)
	alg := Algebra[float32]{
		Times: elementwise(func(x, y float32) float32 { return x * y }),
		Plus:  func(x, y float32) float32 { return x + y },
	}
	return append(key32Runners(a, b), layoutRunner{"wide", func(opt Options) (product, error) {
		c, _, err := multiplyGeneric(a, b, opt)
		if err != nil {
			return product{}, err
		}
		return product{cloneStructure(c), valueBits(c.Val)}, nil
	}}, layoutRunner{"wide-f32", func(opt Options) (product, error) {
		c, vals, st, err := MultiplyGeneric(a, av, b, bv, alg, opt)
		if err != nil {
			return product{}, err
		}
		if st.Layout != LayoutGeneric {
			return product{}, fmt.Errorf("ran %v, want generic", st.Layout)
		}
		return product{cloneStructure(c), valueBits(vals)}, nil
	}})
}

// groupBudgets returns MemoryBudgetBytes values for a product of the given
// flop count: none, and about a half, a ninth and a 34th of its 16-byte tuples —
// with the tests' 4 bins, two groups and then a bin a group.
func groupBudgets(flops int64) []int64 {
	budgets := []int64{0}
	for _, parts := range []int64{2, 9, 34} {
		budgets = append(budgets, flops*tupleBytes/parts+tupleBytes)
	}
	return budgets
}

// scratchAtRest reports whether the dense fold's pooled accumulators and
// bitmaps are all-zero, as every bin must leave them.
func scratchAtRest(ws *Workspace) bool {
	for _, w := range ws.accBits {
		if w != 0 {
			return false
		}
	}
	if l, ok := ws.vals.(*values[float32]); ok && !allPlusZero(l.accVals[:cap(l.accVals)]) {
		return false
	}
	return allPlusZero(ws.f64.accVals[:cap(ws.f64.accVals)])
}

func allPlusZero[V float32 | float64](vals []V) bool {
	for _, v := range vals {
		if v != 0 || math.Signbit(float64(v)) {
			return false
		}
	}
	return true
}

// TestBothKernelsSameBytes runs the same bins through the dense fold, then
// through the LSD, on every layout × threads 1–4 × no budget and three that
// cut the 4 bins into groups, and holds every result to the bytes of the
// layout's unbudgeted single-thread run under the per-bin rule: a budget
// changes which bins expand together, never a bin's fold. The sparse half shrinks the cache budget so the LSD also meets bins far past
// it, each folded whole by one worker when threads > 1. The int32 plane
// wraps around in products and sums alike.
func TestBothKernelsSameBytes(t *testing.T) {
	a, b := gen.RMAT(9, 16, gen.Graph500Params, 161), gen.RMAT(9, 16, gen.Graph500Params, 162)
	for i := range a.Val {
		// Fractions of mixed magnitude: the fold order shows in float32 and
		// float64 sums. The int32 planes truncate them to integers whose
		// products pass 2^31.
		a.Val[i] = (float64(i%13) - 4.75) * math.Pow(10, float64(i%5))
		b.Val[i%len(b.Val)] = (float64(i%7) + 1.3) * 30011
	}
	acsc := a.ToCSC()
	for _, lr := range foldRunners(acsc, b) {
		want, err := lr.run(Options{Threads: 1, NBins: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 2 << 20, 256 << 10, 120 << 10} {
			base := Options{Threads: 1, NBins: 4, MemoryBudgetBytes: budget}
			for _, dense := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/budget=%d/dense=%v", lr.name, budget, dense), func(t *testing.T) {
					forceKernel(t, dense)
					for threads := 1; threads <= 4; threads++ {
						ws := NewWorkspace()
						opt := base
						opt.Threads, opt.Workspace = threads, ws
						if !dense {
							opt.L2CacheBytes = 4096
						}
						for rep := 0; rep < 2; rep++ { // the second run reuses the scratch the first left
							got, err := lr.run(opt)
							if err != nil {
								t.Fatal(err)
							}
							if !got.same(want) {
								t.Fatalf("threads=%d rep=%d: differs from the single-thread run", threads, rep)
							}
							if !scratchAtRest(ws) {
								t.Fatalf("threads=%d rep=%d: dense scratch left dirty", threads, rep)
							}
						}
						// The bitmap is sized when any bin folds dense: a forced sort
						// left every bin, under both clauses, on SortFold*.
						if ranDense := cap(ws.accBits) > 0; ranDense != dense {
							t.Fatalf("threads=%d: dense kernel sized = %v", threads, ranDense)
						}
					}
				})
			}
		}
	}
}

// TestDenseScratchSurvivesCancel cancels a dense-folding run at every poll it
// makes in turn: whichever bin boundary the cancellation lands on, the pooled
// accumulator is at rest and the workspace's next product is right.
func TestDenseScratchSurvivesCancel(t *testing.T) {
	forceKernel(t, true)
	a := gen.RMAT(9, 16, gen.Graph500Params, 163)
	acsc := a.ToCSC()
	base := Options{Threads: 2, NBins: 16}
	want, _, err := Multiply(acsc, a, base)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for at := 1; ; at++ {
		polls := 0
		opt := base
		opt.Workspace = ws
		opt.Threads = 1 // the hook counts without synchronisation
		opt.Cancel = func() error {
			if polls++; polls == at {
				return context.Canceled
			}
			return nil
		}
		_, _, err := Multiply(acsc, a, opt)
		if err == nil {
			if at < 16 {
				t.Fatalf("only %d polls: the sort phase's per-bin polls are missing", at)
			}
			break // at is past the run's last poll
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		if !scratchAtRest(ws) {
			t.Fatalf("cancel at poll %d left the dense scratch dirty", at)
		}
		opt.Cancel = nil
		got, _, err := Multiply(acsc, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !csrBitIdentical(want, got) {
			t.Fatalf("product after a cancel at poll %d differs", at)
		}
	}
}

// TestSpecialValuesThroughTheFold pins −0.0, NaN and ±Inf through both
// kernels on the squeezed, narrow and generic layouts (the generic one over
// float64 and over float32: its function binding takes any value type), unbudgeted and
// under groupBudgets: every run is bit-identical to the unbudgeted
// single-thread one under the per-bin rule, and that one agrees with
// matrix.ReferenceMultiply — bit for bit (the finite values are small
// multiples of 1/4, so no regrouping of a sum rounds) except that Reference,
// summing from +0, cannot keep the sign of a zero, which the test asserts
// directly instead. The pattern layout keeps every such entry.
// Rows 0–15 of A hold only −0.0 and B only positive values, so every entry
// there is a group of −0.0 products that must come out −0.0 — the case a
// zero-initialised accumulator (the fused path before PR 16) loses.
func TestSpecialValuesThroughTheFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), 1, 2.5, -1}
	a, b := gen.ER(256, 12, 164), gen.ER(256, 12, 165)
	r := gen.NewRNG(166)
	for row := int32(0); row < a.NumRows; row++ {
		for p := a.RowPtr[row]; p < a.RowPtr[row+1]; p++ {
			a.Val[p] = specials[r.Intn(int32(len(specials)))]
			if row < 16 {
				a.Val[p] = negZero
			}
		}
	}
	for k := int32(0); k < b.NumRows; k++ {
		for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
			b.Val[q] = specials[r.Intn(int32(len(specials)))]
		}
	}
	// B's rows that A's −0.0 rows reach must be positive and finite.
	for p := a.RowPtr[0]; p < a.RowPtr[16]; p++ {
		k := a.ColIdx[p]
		for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
			b.Val[q] = 1 + float64(q%3)
		}
	}
	ref := matrix.ReferenceMultiply(a, b)
	refBits := valueBits(ref.Val)
	negZeroEnd := ref.RowPtr[16] // entries of the −0.0 rows come first
	if negZeroEnd < 100 {
		t.Fatalf("only %d entries in the −0.0 rows", negZeroEnd)
	}
	const signBit = 1 << 63
	acsc := a.ToCSC()
	budgets := groupBudgets(matrix.Flops(acsc, b))
	for _, lr := range foldRunners(acsc, b) {
		if lr.name == "narrow-i32" {
			continue // no special values in int32
		}
		want, err := lr.run(Options{Threads: 1, NBins: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !csrSameStructure(want.c, ref) {
			t.Fatalf("%s: structure differs from Reference", lr.name)
		}
		for i, bits := range want.bits {
			if zero := bits&^signBit == 0; bits != refBits[i] && !(zero && refBits[i] == 0) {
				t.Fatalf("%s: value %d is %#x, Reference has %#x", lr.name, i, bits, refBits[i])
			} else if int64(i) < negZeroEnd && bits != signBit {
				t.Fatalf("%s: entry %d of the −0.0 rows is %#x", lr.name, i, bits)
			}
		}
		for _, mode := range []string{"dense", "sparse", "rule"} {
			t.Run(lr.name+"/"+mode, func(t *testing.T) {
				if mode != "rule" {
					forceKernel(t, mode == "dense")
				}
				for _, budget := range budgets {
					for _, threads := range []int{1, 3} {
						got, err := lr.run(Options{Threads: threads, NBins: 4, MemoryBudgetBytes: budget})
						if err != nil {
							t.Fatal(err)
						}
						if !got.same(want) {
							t.Fatalf("budget=%d threads=%d: differs from the unbudgeted single-thread run", budget, threads)
						}
					}
				}
			})
		}
	}
}

// TestDenseFoldRule pins the per-bin rule as the pure function it is. Warm
// clause: warmSlotsPerTuple slots a tuple while accumulator and bitmap fit the
// budget, for each value width. Cold clause, past it: denseSlotsPerTuple slots
// a tuple and the accumulator cap at denseCacheFactor budgets.
func TestDenseFoldRule(t *testing.T) {
	const l2 = int64(1) << 20
	for _, tc := range []struct {
		n        int64
		keyBits  uint
		valBytes int64
		l2       int64
		want     bool
	}{
		{128, 16, 8, l2, true},                 // warm: exactly 512 slots (8 bitmap words) a tuple
		{127, 16, 8, l2, false},                // a notch sparser
		{128, 16, 8, 1<<19 + 1<<13, true},      // accumulator + bitmap exactly the budget
		{128, 16, 8, 1<<19 + 1<<13 - 1, false}, // a byte past it: the cold clause's 16 slots a tuple
		{256, 17, 4, l2, true},                 // float32 / int32
		{255, 17, 4, l2, false},                //
		{256, 17, 4, 1<<19 + 1<<14, true},      //
		{256, 17, 4, 1<<19 + 1<<14 - 1, false}, //
		{1 << 14, 23, 0, l2, true},             // pattern: a 1 MiB bitmap, exactly the budget
		{1<<14 - 1, 23, 0, l2, false},          //
		{1 << 15, 24, 0, l2, false},            // 512 slots a tuple, but a 2 MiB bitmap
		{1 << 14, 18, 8, l2, true},             // cold: exactly 16 slots a tuple
		{1<<14 - 1, 18, 8, l2, false},          // a notch sparser
		{1 << 30, 19, 8, l2, true},             // 4 MiB of float64: at the cap
		{1 << 30, 20, 8, l2, false},            // 8 MiB: past it
		{1 << 30, 20, 4, l2, true},             // 4 MiB of float32
		{1 << 30, 21, 4, l2, false},            //
		{1 << 30, 25, 0, l2, true},             // pattern: a 4 MiB bitmap
		{1 << 30, 26, 0, l2, false},            //
		{1 << 28, 32, 0, l2, false},            // a hypersparse 32-bit key space: 16 slots a tuple, 512 MiB of bitmap
		{1 << 20, 32, 8, l2, false},            //
		{math.MaxInt64, 32, 0, l2, false},      // a full 32-bit key space never fits
		{0, 1, 8, l2, false},                   // an empty bin has nothing to fold
	} {
		if got := denseFold(tc.n, tc.keyBits, tc.valBytes, tc.l2); got != tc.want {
			t.Errorf("denseFold(n=%d, keyBits=%d, valBytes=%d, l2=%d) = %v, want %v",
				tc.n, tc.keyBits, tc.valBytes, tc.l2, got, tc.want)
		}
	}
}
