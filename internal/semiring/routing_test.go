package semiring_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/semiring"
)

// TestForeignOpsRunThemselves: a semiring is routed by its operations. A stock
// semiring whose Plus or Times the caller replaced — by a closure of the same
// operation or by a different one — runs the caller's function on PB, SPA and
// Auto, unmasked, masked and complement-masked, at 1 and 2 threads, and each
// product is referenceOver's over the caller's functions bit for bit. A
// semiring assembled from a stock semiring's own functions routes as that
// semiring does: the same plan and the same bytes.
func TestForeignOpsRunThemselves(t *testing.T) {
	a, b, mask := pbspgemm.NewER(64, 4, 1), pbspgemm.NewER(64, 4, 2), pbspgemm.NewER(64, 16, 3)
	id := func(v float64) float64 { return v }
	f32 := func(v float64) float32 { return float32(v) }
	i32 := func(v float64) int32 { return int32(v*100) + 1 }
	one := func(float64) bool { return true }
	xor := func(x, y bool) bool { return x != y }
	max32 := func(x, y float32) float32 { return max(x, y) }
	min32 := func(x, y float32) float32 { return min(x, y) }
	maxI := func(x, y int32) int32 { return max(x, y) }
	minI := func(x, y int32) int32 { return min(x, y) }

	// The Arithmetic probe: Plus = math.Max is MaxTimes' algebra.
	foreign(t, pbspgemm.Arithmetic(), a, b, mask, id, math.Max, math.Min)
	foreign(t, pbspgemm.MinPlus(), a, b, mask, id, math.Max, math.Max)
	foreign(t, pbspgemm.MaxTimes(), a, b, mask, id, math.Min, math.Min)
	foreign(t, pbspgemm.PlusMax(), a, b, mask, id, math.Max, math.Min)
	foreign(t, pbspgemm.Arithmetic32(), a, b, mask, f32, max32, min32)
	foreign(t, pbspgemm.ArithmeticInt32(), a, b, mask, i32, maxI, minI)
	foreign(t, pbspgemm.Boolean(), a, b, mask, one, xor, xor)
}

// foreign runs sr with Plus, then Times, replaced by a counted closure of the
// stock function and by the counted other function, and the assembled copy of sr.
func foreign[T any](t *testing.T, sr pbspgemm.Semiring[T], a, b, mask *pbspgemm.CSR, lift func(float64) T,
	otherPlus, otherTimes func(x, y T) T) {

	t.Run(sr.Name, func(t *testing.T) { foreignOf(t, sr, a, b, mask, lift, otherPlus, otherTimes) })
}

func foreignOf[T any](t *testing.T, sr pbspgemm.Semiring[T], a, b, mask *pbspgemm.CSR, lift func(float64) T,
	otherPlus, otherTimes func(x, y T) T) {

	ar, br := pbspgemm.MatrixOf(a, lift), pbspgemm.MatrixOf(b, lift)
	ac := ar.ToCSC()
	var calls atomic.Int64
	counted := func(f func(x, y T) T) func(x, y T) T {
		return func(x, y T) T { calls.Add(1); return f(x, y) }
	}
	for _, v := range []struct {
		name        string
		plus, times func(x, y T) T
	}{
		{"Plus a closure of its own", counted(sr.Plus), sr.Times},
		{"Plus another operation", counted(otherPlus), sr.Times},
		{"Times a closure of its own", sr.Plus, counted(sr.Times)},
		{"Times another operation", sr.Plus, counted(otherTimes)},
	} {
		mod := sr
		mod.Plus, mod.Times = v.plus, v.times
		each(t, mask, func(what string, m *pbspgemm.CSR, complement bool, opts []pbspgemm.Option) {
			want := semiring.ReferenceOver(mod, ar, br, m, complement)
			calls.Store(0)
			got, err := pbspgemm.MultiplyOver(mod, ac, br, opts...)
			if err != nil {
				t.Fatal(err)
			}
			what = v.name + ", " + what
			same(t, what, got, want)
			if calls.Load() == 0 {
				t.Fatalf("%s: the caller's function never ran", what)
			}
		})
	}

	asm := pbspgemm.Semiring[T]{Name: "assembled", Zero: sr.Zero, Plus: sr.Plus, Times: sr.Times}
	each(t, mask, func(what string, _ *pbspgemm.CSR, _ bool, opts []pbspgemm.Option) {
		var ps, pa pbspgemm.SemiringPlan
		want, err := pbspgemm.MultiplyOver(sr, ac, br, append(opts, pbspgemm.WithSemiringPlan(&ps))...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pbspgemm.MultiplyOver(asm, ac, br, append(opts, pbspgemm.WithSemiringPlan(&pa))...)
		if err != nil {
			t.Fatal(err)
		}
		what = "assembled, " + what
		if pa.FastPath != ps.FastPath || pa.Layout != ps.Layout || pa.Rows != ps.Rows {
			t.Fatalf("%s: plan %+v, the stock semiring's %+v", what, pa, ps)
		}
		same(t, what, got, want)
	})
}

// each calls f under PB, SPA and Auto, unmasked, masked and complement-masked,
// at 1 and 2 threads.
func each(t *testing.T, mask *pbspgemm.CSR, f func(what string, m *pbspgemm.CSR, complement bool, opts []pbspgemm.Option)) {
	t.Helper()
	for _, alg := range []pbspgemm.Algorithm{pbspgemm.PB, pbspgemm.SPA, pbspgemm.Auto} {
		for _, mode := range []string{"unmasked", "masked", "complement-masked"} {
			for _, threads := range []int{1, 2} {
				opts := []pbspgemm.Option{pbspgemm.WithAlgorithm(alg), pbspgemm.WithThreads(threads)}
				m, complement := mask, mode == "complement-masked"
				switch mode {
				case "unmasked":
					m = nil
				case "masked":
					opts = append(opts, pbspgemm.WithMask(mask))
				default:
					opts = append(opts, pbspgemm.WithComplementMask(mask))
				}
				f(fmt.Sprintf("%v, %s, %d threads", alg, mode, threads), m, complement, opts)
			}
		}
	}
}

// same holds got to want: structure, and every value bit for bit.
func same[T any](t *testing.T, what string, got, want *pbspgemm.Matrix[T]) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if fmt.Sprint(got.RowPtr, got.ColIdx) != fmt.Sprint(want.RowPtr, want.ColIdx) {
		t.Fatalf("%s: structure differs (%d entries, want %d)", what, got.NNZ(), want.NNZ())
	}
	diff := 0
	for i := range want.Val {
		if !sameBits(got.Val[i], want.Val[i]) {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d of %d values differ", what, diff, len(want.Val))
	}
}

func sameBits[T any](x, y T) bool {
	switch x := any(x).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(y).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(y).(float32))
	}
	return any(x) == any(y)
}
