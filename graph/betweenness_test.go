package graph

import (
	"context"
	"math"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// bruteBetweenness is textbook Brandes over all given sources.
func bruteBetweenness(a *pbspgemm.CSR, sources []int32) []float64 {
	n := a.NumRows
	bc := make([]float64, n)
	for _, s := range sources {
		dist := make([]int32, n)
		sigma := make([]float64, n)
		delta := make([]float64, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		sigma[s] = 1
		var order []int32
		queue := []int32{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				w := a.ColIdx[p]
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for p := a.RowPtr[w]; p < a.RowPtr[w+1]; p++ {
				v := a.ColIdx[p]
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}

func TestBetweennessPathGraph(t *testing.T) {
	// On a path 0-1-2-3-4 with all sources: interior vertex v lies on all
	// shortest paths between the v_left and v_right sides.
	g := pathGraph(5)
	all := []int32{0, 1, 2, 3, 4}
	got, err := g.BetweennessCentrality(all)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteBetweenness(g.Adj, all)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("bc[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	// Middle vertex has the highest centrality.
	if got[2] <= got[1] || got[1] <= got[0] {
		t.Fatalf("path centralities not peaked at middle: %v", got)
	}
}

func TestBetweennessStarGraph(t *testing.T) {
	// Star: hub 0 with 6 leaves. Hub's bc = (k-1)(k-2) pairs... with each
	// ordered pair counted once: 6*5 = 30.
	coo := &matrix.COO{NumRows: 7, NumCols: 7}
	for l := int32(1); l < 7; l++ {
		coo.Row = append(coo.Row, 0, l)
		coo.Col = append(coo.Col, l, 0)
		coo.Val = append(coo.Val, 1, 1)
	}
	g := &Graph{Adj: coo.ToCSR()}
	all := []int32{0, 1, 2, 3, 4, 5, 6}
	got, err := g.BetweennessCentrality(all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-30) > 1e-9 {
		t.Fatalf("hub bc = %v, want 30", got[0])
	}
	for l := 1; l < 7; l++ {
		if got[l] != 0 {
			t.Fatalf("leaf %d bc = %v, want 0", l, got[l])
		}
	}
}

func TestBetweennessMatchesBrandesRandom(t *testing.T) {
	g := FromAdjacency(gen.ER(120, 4, 13))
	sources := []int32{0, 5, 17, 60, 119}
	got, err := g.BetweennessCentrality(sources)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteBetweenness(g.Adj, sources)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*math.Max(1, want[v]) {
			t.Fatalf("bc[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestBetweennessEdgeCases(t *testing.T) {
	g := pathGraph(4)
	if bc, err := g.BetweennessCentrality(nil); err != nil || len(bc) != 4 {
		t.Fatal("empty sources must return zeros")
	}
	if _, err := g.BetweennessCentrality([]int32{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestAdd(t *testing.T) {
	a := gen.ER(200, 4, 1)
	b := gen.ER(200, 4, 2)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Check against COO concatenation + dedup.
	coo := &matrix.COO{NumRows: 200, NumCols: 200}
	for _, m := range []*pbspgemm.CSR{a, b} {
		for i := int32(0); i < m.NumRows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				coo.Row = append(coo.Row, i)
				coo.Col = append(coo.Col, m.ColIdx[p])
				coo.Val = append(coo.Val, m.Val[p])
			}
		}
	}
	want := coo.ToCSR()
	if !pbspgemm.EqualWithin(want, c, 1e-12) {
		t.Fatal("Add differs from COO-merge reference")
	}
	// A + 0 = A.
	zero := matrix.NewCSR(200, 200, 0)
	same, err := Add(a, zero)
	if err != nil {
		t.Fatal(err)
	}
	if !pbspgemm.EqualWithin(a, same, 0) {
		t.Fatal("A + 0 != A")
	}
	// Shape mismatch.
	if _, err := Add(a, gen.ER(100, 2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDistributivity(t *testing.T) {
	// (A+B)·C == A·C + B·C across the whole stack.
	a := gen.ER(128, 3, 4)
	b := gen.ER(128, 3, 5)
	c := gen.ER(128, 3, 6)
	ab, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	left, err := eng.Multiply(ctx, ab, c)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := eng.Multiply(ctx, a, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := eng.Multiply(ctx, b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Add(ac.C, bc.C)
	if err != nil {
		t.Fatal(err)
	}
	if !pbspgemm.EqualWithin(left.C, right, 1e-9) {
		t.Fatal("(A+B)·C != A·C + B·C")
	}
}
