package core

import (
	"fmt"
	"testing"
	"unsafe"

	"pbspgemm/internal/matrix"
)

// slackProduct is a product of n+m flops whose C has n entries, m of them
// folded from two products: A (n×2n) holds (i, i) for every i and (i, n+i)
// for i < m, B (2n×n) holds (i, i) and (n+i, i). Values are small integers,
// so every layout's sums are exact. It returns A by rows and by columns, and
// B.
func slackProduct(n, m int) (*matrix.CSR, *matrix.CSC, *matrix.CSR) {
	a := &matrix.CSR{NumRows: int32(n), NumCols: int32(2 * n), RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		a.ColIdx, a.Val = append(a.ColIdx, int32(i)), append(a.Val, float64(i%5+1))
		if i < m {
			a.ColIdx, a.Val = append(a.ColIdx, int32(n+i)), append(a.Val, float64(i%3+2))
		}
		a.RowPtr[i+1] = int64(len(a.ColIdx))
	}
	b := &matrix.CSR{NumRows: int32(2 * n), NumCols: int32(n), RowPtr: make([]int64, 2*n+1)}
	for r := 0; r < 2*n; r++ {
		b.ColIdx, b.Val = append(b.ColIdx, int32(r%n)), append(b.Val, float64(r%7+1))
		b.RowPtr[r+1] = int64(r + 1)
	}
	return a, a.ToCSC(), b
}

// keysAddr is where a result's column ids live, to compare with the tuple arena.
func keysAddr(c *matrix.CSR) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(c.ColIdx)) }

func arenaAddr(ws *Workspace) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(ws.tupleKeys)) }

// TestHandedOverArenaIsTheProduct: a one-thread cf = 1 product on a shared
// workspace is the tuple arena itself — its ColIdx and Val are the key and
// value planes — at zero steady-state allocations. DetachOutput makes it
// the caller's: the next call writes a fresh arena, and the detached bytes stay.
func TestHandedOverArenaIsTheProduct(t *testing.T) {
	_, a, b := slackProduct(4000, 0)
	ws := NewWorkspace()
	opt := Options{Threads: 1, Workspace: ws}
	c, _, err := Multiply(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if keysAddr(c) != arenaAddr(ws) || unsafe.SliceData(c.Val) != unsafe.SliceData(ws.f64.tupleVals) {
		t.Fatal("a one-group cf = 1 product at one thread was copied out, not handed over")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := Multiply(a, b, opt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a handed-over product allocated %.1f times a call on a shared workspace", allocs)
	}

	kept := ws.DetachOutput(c)
	want := kept.Clone()
	if ws.tupleKeys != nil || ws.f64.tupleVals != nil {
		t.Fatal("DetachOutput kept the tuple planes the product took over")
	}
	_, a2, b2 := slackProduct(4000, 40)
	if _, _, err := Multiply(a2, b2, opt); err != nil {
		t.Fatal(err)
	}
	if keysAddr(kept) == arenaAddr(ws) || !csrBitIdentical(kept, want) {
		t.Fatal("the next call wrote into a detached product")
	}
}

// TestHandOverSlackEdge runs products whose slack is exactly 1/32 of the
// arena (handed over) and one flop past it (copied out) through every layout,
// at one and two threads, single-shot and in several bin groups: each must
// match the reference fold, and only the one-thread single-shot run at the
// edge may hand its arena over.
func TestHandOverSlackEdge(t *testing.T) {
	const s = 100
	n := 31 * s
	groups := map[bool]bool{}
	for _, m := range []int{s, s + 1} {
		ar, a, b := slackProduct(n, m)
		// Every value is a small integer, so each layout's sums are the
		// reference's exactly.
		ref := FoldReference(ar, b)
		want, pattern := product{ref, valueBits(ref.Val)}, product{ref, nil}
		for _, r := range foldRunners(a, b) {
			for _, threads := range []int{1, 2} {
				for _, budget := range groupBudgets(int64(n + m)) {
					name := fmt.Sprintf("m=%d/%s/t%d/budget%d", m, r.name, threads, budget)
					ws := NewWorkspace()
					got, err := r.run(Options{Threads: threads, MemoryBudgetBytes: budget, Workspace: ws})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					w := want
					if r.name == "pattern" {
						w = pattern
					}
					if !got.same(w) {
						t.Fatalf("%s: product differs from the reference fold", name)
					}
					groups[ws.stats.NGroups > 1] = true
					handed := threads == 1 && ws.stats.NGroups == 1 && m == s
					if (ws.handed != nil) != handed {
						t.Fatalf("%s: handed over = %v, want %v", name, ws.handed != nil, handed)
					}
				}
			}
		}
	}
	if !groups[false] || !groups[true] {
		t.Fatalf("the budgets ran single-shot %v, in several groups %v", groups[false], groups[true])
	}
}
