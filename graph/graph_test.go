package graph

import (
	"context"
	"testing"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// elementWiseMultiplySum returns sum over all (i,j) of a(i,j)*b(i,j), the
// Hadamard-product mass. Triangle counting uses sum(A^2 .* A)/6 on a simple
// undirected graph; both operands must be canonical CSR.
func elementWiseMultiplySum(a, b *pbspgemm.CSR) float64 {
	var total float64
	for i := int32(0); i < a.NumRows; i++ {
		p, pEnd := a.RowPtr[i], a.RowPtr[i+1]
		q, qEnd := b.RowPtr[i], b.RowPtr[i+1]
		for p < pEnd && q < qEnd {
			switch {
			case a.ColIdx[p] < b.ColIdx[q]:
				p++
			case a.ColIdx[p] > b.ColIdx[q]:
				q++
			default:
				total += a.Val[p] * b.Val[q]
				p++
				q++
			}
		}
	}
	return total
}

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int32) *Graph {
	coo := &matrix.COO{NumRows: n, NumCols: n}
	for i := int32(0); i+1 < n; i++ {
		coo.Row = append(coo.Row, i, i+1)
		coo.Col = append(coo.Col, i+1, i)
		coo.Val = append(coo.Val, 1, 1)
	}
	return &Graph{Adj: coo.ToCSR()}
}

// completeGraph returns K_n.
func completeGraph(n int32) *Graph {
	coo := &matrix.COO{NumRows: n, NumCols: n}
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			if i != j {
				coo.Row = append(coo.Row, i)
				coo.Col = append(coo.Col, j)
				coo.Val = append(coo.Val, 1)
			}
		}
	}
	return &Graph{Adj: coo.ToCSR()}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	// K_n has C(n,3) triangles.
	for _, n := range []int32{3, 4, 5, 10} {
		g := completeGraph(n)
		got, err := g.Triangles()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n) * int64(n-1) * int64(n-2) / 6
		if got != want {
			t.Fatalf("K_%d: %d triangles, want %d", n, got, want)
		}
	}
	// A path has none.
	if got, _ := pathGraph(20).Triangles(); got != 0 {
		t.Fatalf("path graph has %d triangles, want 0", got)
	}
}

func TestTrianglesAgreeAcrossAlgorithms(t *testing.T) {
	// The masked-multiply count must agree with the legacy unmasked
	// formulation (materialize A² with each algorithm, Hadamard-mask, sum).
	g := FromAdjacency(gen.ER(512, 6, 3))
	masked, err := g.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []pbspgemm.Algorithm{pbspgemm.PB, pbspgemm.Hash, pbspgemm.Heap} {
		sq, err := eng.Multiply(context.Background(), g.Adj, g.Adj, pbspgemm.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		mass := elementWiseMultiplySum(sq.C, g.Adj)
		if legacy := int64(mass+0.5) / 6; legacy != masked {
			t.Fatalf("%v: masked count %d != unmasked count %d", alg, masked, legacy)
		}
	}
}

func TestPerVertexTrianglesSumsToTotal(t *testing.T) {
	g := FromAdjacency(gen.ER(300, 8, 5))
	per, err := g.PerVertexTriangles()
	if err != nil {
		t.Fatal(err)
	}
	total, err := g.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range per {
		sum += c
	}
	if sum != 3*total {
		t.Fatalf("per-vertex sum %d != 3*total %d", sum, 3*total)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	// Every vertex of K_5 has coefficient 1; path interior vertices 0.
	cc, err := completeGraph(5).ClusteringCoefficients()
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cc {
		if c != 1 {
			t.Fatalf("K_5 vertex %d coefficient %v, want 1", v, c)
		}
	}
	cc, err = pathGraph(10).ClusteringCoefficients()
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cc {
		if c != 0 {
			t.Fatalf("path vertex %d coefficient %v, want 0", v, c)
		}
	}
	gcc, err := completeGraph(6).GlobalClusteringCoefficient()
	if err != nil {
		t.Fatal(err)
	}
	if gcc != 1 {
		t.Fatalf("K_6 global coefficient %v, want 1", gcc)
	}
}

func TestMultiSourceBFSPath(t *testing.T) {
	g := pathGraph(10)
	levels, err := g.MultiSourceBFS([]int32{0, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 10; v++ {
		if levels[0][v] != v {
			t.Fatalf("from 0: level[%d] = %d, want %d", v, levels[0][v], v)
		}
		if levels[1][v] != 9-v {
			t.Fatalf("from 9: level[%d] = %d, want %d", v, levels[1][v], 9-v)
		}
		want := v - 5
		if want < 0 {
			want = -want
		}
		if levels[2][v] != want {
			t.Fatalf("from 5: level[%d] = %d, want %d", v, levels[2][v], want)
		}
	}
}

func TestMultiSourceBFSMatchesSequentialBFS(t *testing.T) {
	g := FromAdjacency(gen.RMAT(9, 4, gen.Graph500Params, 7))
	sources := []int32{0, 17, 100, 301}
	levels, err := g.MultiSourceBFS(sources)
	if err != nil {
		t.Fatal(err)
	}
	for s, src := range sources {
		want := sequentialBFS(g.Adj, src)
		for v := range want {
			if levels[s][v] != want[v] {
				t.Fatalf("source %d: level[%d] = %d, want %d", src, v, levels[s][v], want[v])
			}
		}
	}
}

func sequentialBFS(a *pbspgemm.CSR, src int32) []int32 {
	dist := make([]int32, a.NumRows)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			w := a.ColIdx[p]
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestMultiSourceBFSBadSource(t *testing.T) {
	g := pathGraph(5)
	if _, err := g.MultiSourceBFS([]int32{99}); err == nil {
		t.Fatal("expected out-of-range source error")
	}
	levels, err := g.MultiSourceBFS(nil)
	if err != nil || len(levels) != 0 {
		t.Fatal("empty source list should be a no-op")
	}
}

func TestEccentricity(t *testing.T) {
	g := pathGraph(10)
	ecc, err := g.Eccentricity(0)
	if err != nil {
		t.Fatal(err)
	}
	if ecc != 9 {
		t.Fatalf("eccentricity = %d, want 9", ecc)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint triangles plus an isolated vertex: 3 components.
	coo := &matrix.COO{NumRows: 7, NumCols: 7}
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}
	for _, e := range edges {
		coo.Row = append(coo.Row, e[0], e[1])
		coo.Col = append(coo.Col, e[1], e[0])
		coo.Val = append(coo.Val, 1, 1)
	}
	g := &Graph{Adj: coo.ToCSR()}
	comp, n, err := g.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("first triangle split across components")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("second triangle split across components")
	}
	if comp[0] == comp[3] || comp[0] == comp[6] || comp[3] == comp[6] {
		t.Fatal("distinct components merged")
	}
}

func TestConnectedComponentsLargerThanBatch(t *testing.T) {
	// 40 disjoint edges => 40 components, forcing several BFS sweeps.
	coo := &matrix.COO{NumRows: 80, NumCols: 80}
	for i := int32(0); i < 80; i += 2 {
		coo.Row = append(coo.Row, i, i+1)
		coo.Col = append(coo.Col, i+1, i)
		coo.Val = append(coo.Val, 1, 1)
	}
	g := &Graph{Adj: coo.ToCSR()}
	comp, n, err := g.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("components = %d, want 40", n)
	}
	for i := int32(0); i < 80; i += 2 {
		if comp[i] != comp[i+1] {
			t.Fatalf("edge endpoints %d,%d in different components", i, i+1)
		}
	}
}

func TestFromAdjacencyProperties(t *testing.T) {
	g := FromAdjacency(gen.ER(200, 5, 9))
	a := g.Adj
	// Symmetric, zero diagonal, 0/1 values.
	if !pbspgemm.EqualWithin(a, a.Transpose(), 0) {
		t.Fatal("adjacency not symmetric")
	}
	for i := int32(0); i < a.NumRows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] == i {
				t.Fatal("diagonal entry present")
			}
			if a.Val[p] != 1 {
				t.Fatal("non-unit value")
			}
		}
	}
	if g.NumVertices() != 200 || g.NumEdges() != a.NNZ()/2 {
		t.Fatal("counts wrong")
	}
	var degSum int64
	for _, d := range g.Degrees() {
		degSum += d
	}
	if degSum != a.NNZ() {
		t.Fatal("degree sum != nnz")
	}
}

func TestAPSPStepConvergesToFloydWarshall(t *testing.T) {
	// Small weighted digraph with deterministic pseudo-random weights; the
	// min-plus relaxation doubled ⌈log₂ n⌉ times must reach the full APSP
	// closure computed by Floyd–Warshall.
	n := int32(24)
	coo := &matrix.COO{NumRows: n, NumCols: n}
	state := uint64(99)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for e := 0; e < int(n)*3; e++ {
		i := int32(next() % uint64(n))
		j := int32(next() % uint64(n))
		if i == j {
			continue
		}
		coo.Row = append(coo.Row, i)
		coo.Col = append(coo.Col, j)
		coo.Val = append(coo.Val, 1+float64(next()%100)/10)
	}
	d := coo.ToCSR()

	const inf = 1e308
	want := make([][]float64, n)
	for i := range want {
		want[i] = make([]float64, n)
		for j := range want[i] {
			want[i][j] = inf
		}
	}
	for i := int32(0); i < n; i++ {
		for p := d.RowPtr[i]; p < d.RowPtr[i+1]; p++ {
			if v := d.Val[p]; v < want[i][d.ColIdx[p]] {
				want[i][d.ColIdx[p]] = v
			}
		}
	}
	for k := int32(0); k < n; k++ {
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if rel := want[i][k] + want[k][j]; rel < want[i][j] {
					want[i][j] = rel
				}
			}
		}
	}

	cur := d
	for s := 0; s < 5; s++ { // ⌈log₂ 24⌉ = 5 doublings
		var err error
		cur, err = APSPStep(cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < n; i++ {
		got := make([]float64, n)
		for j := range got {
			got[j] = inf
		}
		for p := cur.RowPtr[i]; p < cur.RowPtr[i+1]; p++ {
			got[cur.ColIdx[p]] = cur.Val[p]
		}
		for j := int32(0); j < n; j++ {
			w := want[i][j]
			if w == inf {
				if got[j] != inf {
					t.Fatalf("(%d,%d): got %v, want unreachable", i, j, got[j])
				}
				continue
			}
			if diff := got[j] - w; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("(%d,%d): got %v, want %v", i, j, got[j], w)
			}
		}
	}
}

func TestConnectedComponentsReachedLabeling(t *testing.T) {
	// A graph whose batch contains several seeds of the same component:
	// a star on vertices [0,20) centred at 0, plus 30 isolated vertices, so
	// one sweep's 16 seeds mix one big component with many singletons.
	coo := &matrix.COO{NumRows: 50, NumCols: 50}
	for i := int32(1); i < 20; i++ {
		coo.Row = append(coo.Row, 0, i)
		coo.Col = append(coo.Col, i, 0)
		coo.Val = append(coo.Val, 1, 1)
	}
	g := &Graph{Adj: coo.ToCSR()}
	comp, n, err := g.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if n != 31 {
		t.Fatalf("components = %d, want 31 (star + 30 singletons)", n)
	}
	for i := int32(1); i < 20; i++ {
		if comp[i] != comp[0] {
			t.Fatalf("star vertex %d not in component of centre", i)
		}
	}
	seen := map[int32]bool{comp[0]: true}
	for i := int32(20); i < 50; i++ {
		if seen[comp[i]] {
			t.Fatalf("singleton %d shares component %d", i, comp[i])
		}
		seen[comp[i]] = true
	}
}

func TestGraphMethodsIgnoreStrayMaskOptions(t *testing.T) {
	// A caller-supplied WithMask must not leak into the traversal kernels'
	// own multiplications (it would silently truncate BFS and corrupt
	// triangle counts).
	g := pathGraph(10)
	bogus := pbspgemm.NewER(10, 1, 1)
	levels, err := g.MultiSourceBFS([]int32{0}, pbspgemm.WithMask(bogus))
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 10; v++ {
		if levels[0][v] != v {
			t.Fatalf("masked-option BFS wrong: level[%d] = %d, want %d", v, levels[0][v], v)
		}
	}
	k := completeGraph(5)
	tri, err := k.Triangles(pbspgemm.WithMask(bogus.Transpose()))
	if err != nil {
		t.Fatal(err)
	}
	if tri != 10 {
		t.Fatalf("masked-option triangles = %d, want 10", tri)
	}
}
