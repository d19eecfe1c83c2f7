// Package graph implements the graph-analytics workloads the paper's
// introduction motivates SpGEMM with: triangle counting and clustering
// coefficients (Azad, Buluç, Gilbert [2]) and multi-source breadth-first
// search (Gilbert, Reinhardt, Shah [3]). Every kernel is built on the
// library's semiring surface — BFS multiplies over Boolean(), triangle
// counting uses the masked product A²⟨A⟩ without ever materializing the
// unmasked square, and one all-pairs shortest-path relaxation (APSPStep) is
// a min-plus multiplication — so these serve both as examples of the public
// API and as end-to-end integration tests of the multiplication engine.
package graph

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pbspgemm"
	"pbspgemm/internal/matrix"
)

// Graph is a simple undirected graph stored as a symmetric 0/1 adjacency
// matrix with an empty diagonal. Methods are safe for concurrent use once
// the graph is built (the cached boolean adjacency is initialized under a
// sync.Once).
type Graph struct {
	// Adj is the adjacency matrix. It must not be replaced or mutated after
	// the first traversal method runs: BFS-based methods cache a boolean
	// view of it, which would silently go stale. To change the graph, build
	// a new Graph.
	Adj *pbspgemm.CSR

	boolOnce sync.Once
	boolAdj  *pbspgemm.ColMatrix[bool]

	intOnce sync.Once
	intAdjC *pbspgemm.ColMatrix[int32]
	intAdjR *pbspgemm.Matrix[int32]
}

// FromAdjacency builds a Graph from an arbitrary sparse matrix by
// symmetrizing (A ∨ Aᵀ), dropping the diagonal and collapsing values to 1.
func FromAdjacency(a *pbspgemm.CSR) *Graph {
	at := a.Transpose()
	coo := &matrix.COO{NumRows: a.NumRows, NumCols: a.NumCols}
	add := func(m *pbspgemm.CSR) {
		for i := int32(0); i < m.NumRows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if j := m.ColIdx[p]; j != i {
					coo.Row = append(coo.Row, i)
					coo.Col = append(coo.Col, j)
					coo.Val = append(coo.Val, 1)
				}
			}
		}
	}
	add(a)
	add(at)
	s := coo.ToCSR()
	s.Apply(func(float64) float64 { return 1 })
	return &Graph{Adj: s}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int32 { return g.Adj.NumRows }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int64 { return g.Adj.NNZ() / 2 }

// Degrees returns the per-vertex degree.
func (g *Graph) Degrees() []int64 {
	d := make([]int64, g.Adj.NumRows)
	for i := int32(0); i < g.Adj.NumRows; i++ {
		d[i] = g.Adj.RowNNZ(i)
	}
	return d
}

// booleanAdjacency lazily converts the adjacency to the boolean
// column-major form the BFS multiplications stream, built once per graph.
func (g *Graph) booleanAdjacency() *pbspgemm.ColMatrix[bool] {
	g.boolOnce.Do(func() {
		g.boolAdj = pbspgemm.MatrixOf(g.Adj, func(float64) bool { return true }).ToCSC()
	})
	return g.boolAdj
}

// noMask neutralizes any caller-supplied mask option before opts reach a
// multiplication: the graph kernels define their own masking semantics (or
// none), and a stray WithMask would silently corrupt traversal results.
func noMask(opts []pbspgemm.Option) []pbspgemm.Option {
	out := make([]pbspgemm.Option, 0, len(opts)+1)
	out = append(out, opts...)
	return append(out, pbspgemm.WithMask(nil))
}

// intAdjacency lazily builds the all-ones int32 views of the adjacency that
// the triangle kernels multiply over the ArithmeticInt32 semiring, built once
// per graph like the boolean view.
func (g *Graph) intAdjacency() (*pbspgemm.ColMatrix[int32], *pbspgemm.Matrix[int32]) {
	g.intOnce.Do(func() {
		g.intAdjR = pbspgemm.MatrixOf(g.Adj, func(float64) int32 { return 1 })
		g.intAdjC = g.intAdjR.ToCSC()
	})
	return g.intAdjC, g.intAdjR
}

// maskedSquareRowSums returns the per-vertex row sums of A²⟨A⟩ — the 2-path
// counts restricted to positions that close an edge — as one masked product
// over the exact int32 semiring: the plain mask routes it onto the row kernel,
// so A² never exists. A caller's mask option is overridden, as in every kernel.
func (g *Graph) maskedSquareRowSums(opts []pbspgemm.Option) ([]int64, error) {
	ac, ar := g.intAdjacency()
	sq, err := pbspgemm.MultiplyOver(pbspgemm.ArithmeticInt32(), ac, ar,
		append(noMask(opts), pbspgemm.WithMask(g.Adj))...)
	if err != nil {
		return nil, err
	}
	sums := make([]int64, g.Adj.NumRows)
	for v := range sums {
		for _, paths := range sq.Val[sq.RowPtr[v]:sq.RowPtr[v+1]] {
			sums[v] += int64(paths)
		}
	}
	return sums, nil
}

// Triangles counts the triangles of g as sum(A²⟨A⟩)/6 (the paper's
// triangle-counting citation [2] is exactly this masked-square
// formulation), one masked product over the exact int32 semiring.
func (g *Graph) Triangles(opts ...pbspgemm.Option) (int64, error) {
	sums, err := g.maskedSquareRowSums(opts)
	if err != nil {
		return 0, err
	}
	var mass int64
	for _, s := range sums {
		mass += s
	}
	return mass / 6, nil
}

// PerVertexTriangles returns the number of triangles through each vertex:
// t(v) = row-sum of A²⟨A⟩ at v, halved (each triangle at v is counted once
// per neighbour direction).
func (g *Graph) PerVertexTriangles(opts ...pbspgemm.Option) ([]int64, error) {
	sums, err := g.maskedSquareRowSums(opts)
	if err != nil {
		return nil, err
	}
	for v := range sums {
		sums[v] /= 2
	}
	return sums, nil
}

// ClusteringCoefficients returns the local clustering coefficient of every
// vertex: triangles(v) / (d(v)·(d(v)-1)/2); vertices of degree < 2 get 0.
func (g *Graph) ClusteringCoefficients(opts ...pbspgemm.Option) ([]float64, error) {
	tri, err := g.PerVertexTriangles(opts...)
	if err != nil {
		return nil, err
	}
	deg := g.Degrees()
	out := make([]float64, len(tri))
	for v := range out {
		if deg[v] >= 2 {
			out[v] = float64(2*tri[v]) / float64(deg[v]*(deg[v]-1))
		}
	}
	return out, nil
}

// GlobalClusteringCoefficient returns 3·triangles / open-wedges.
func (g *Graph) GlobalClusteringCoefficient(opts ...pbspgemm.Option) (float64, error) {
	tri, err := g.Triangles(opts...)
	if err != nil {
		return 0, err
	}
	var wedges int64
	for _, d := range g.Degrees() {
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0, nil
	}
	return 3 * float64(tri) / float64(wedges), nil
}

// MultiSourceBFS runs breadth-first search from every source simultaneously
// by iterating the frontier matrix F ← A·F over the Boolean semiring (the
// SpGEMM formulation of [3]): F is n×k with column s holding source s's
// current frontier. It returns levels[s][v] = BFS distance from sources[s]
// to v, or -1 if unreachable.
func (g *Graph) MultiSourceBFS(sources []int32, opts ...pbspgemm.Option) ([][]int32, error) {
	eng, err := pbspgemm.NewEngine(noMask(opts)...)
	if err != nil {
		return nil, err
	}
	levels, _, err := g.multiSourceBFS(eng, sources)
	return levels, err
}

// multiSourceBFS is the shared BFS driver. Alongside the level arrays it
// returns reached[s], the vertices source s discovered (source included, in
// discovery order) — connected-components labeling walks only these instead
// of rescanning all n vertices per seed.
//
// The caller's engine serves every level (and, for ConnectedComponents,
// every sweep), so the boolean workspace warmed up on the first
// multiplication is reused to the end; the frontier matrix reuses one set
// of CSR buffers across levels (new frontiers are discovered in row-major
// order, so assembly is a counting pass, not a sort).
func (g *Graph) multiSourceBFS(eng *pbspgemm.Engine, sources []int32) (levels, reached [][]int32, err error) {
	n := g.Adj.NumRows
	k := int32(len(sources))
	levels = make([][]int32, k)
	reached = make([][]int32, k)
	for s := range levels {
		if sources[s] < 0 || sources[s] >= n {
			return nil, nil, fmt.Errorf("graph: source %d out of range [0,%d)", sources[s], n)
		}
		levels[s] = make([]int32, n)
		for v := range levels[s] {
			levels[s][v] = -1
		}
		levels[s][sources[s]] = 0
		reached[s] = []int32{sources[s]}
	}
	if k == 0 {
		return levels, reached, nil
	}
	adj := g.booleanAdjacency()
	ctx := context.Background()

	// Frontier entry lists (row-major), reused across levels. The initial
	// frontier is the sources, sorted into CSR order; every later frontier
	// is discovered in row-major order and needs no sorting.
	frRows := make([]int32, 0, k)
	frCols := make([]int32, 0, k)
	order := make([]int32, k)
	for s := range order {
		order[s] = int32(s)
	}
	sort.Slice(order, func(i, j int) bool {
		if sources[order[i]] != sources[order[j]] {
			return sources[order[i]] < sources[order[j]]
		}
		return order[i] < order[j]
	})
	for _, s := range order {
		frRows = append(frRows, sources[s])
		frCols = append(frCols, s)
	}

	f := &pbspgemm.Matrix[bool]{NumRows: n, NumCols: k, RowPtr: make([]int64, n+1)}
	var vals []bool

	for depth := int32(1); len(frRows) > 0; depth++ {
		// Assemble F from the entry lists: counting pass into the reused
		// RowPtr, column indices and all-true values aliased directly.
		for i := range f.RowPtr {
			f.RowPtr[i] = 0
		}
		for _, v := range frRows {
			f.RowPtr[v+1]++
		}
		for i := int32(0); i < n; i++ {
			f.RowPtr[i+1] += f.RowPtr[i]
		}
		vals = vals[:0]
		for range frCols {
			vals = append(vals, true)
		}
		f.ColIdx, f.Val = frCols, vals

		// One boolean SpGEMM advances every search: N = A·F reaches the
		// neighbours of all frontiers at once.
		next, err := pbspgemm.EngineMultiplyOver(eng, ctx, pbspgemm.Boolean(), adj, f)
		if err != nil {
			return nil, nil, err
		}

		// Mask out visited vertices, record new levels and collect the next
		// frontier — rows ascending, columns ascending within a row, so the
		// lists stay in CSR order for the next assembly.
		frRows, frCols = frRows[:0], frCols[:0]
		for v := int32(0); v < n; v++ {
			for p := next.RowPtr[v]; p < next.RowPtr[v+1]; p++ {
				s := next.ColIdx[p]
				if levels[s][v] == -1 {
					levels[s][v] = depth
					reached[s] = append(reached[s], v)
					frRows = append(frRows, v)
					frCols = append(frCols, s)
				}
			}
		}
	}
	return levels, reached, nil
}

// Eccentricity returns max distance from source to any reachable vertex.
func (g *Graph) Eccentricity(source int32, opts ...pbspgemm.Option) (int32, error) {
	levels, err := g.MultiSourceBFS([]int32{source}, opts...)
	if err != nil {
		return 0, err
	}
	var ecc int32
	for _, l := range levels[0] {
		if l > ecc {
			ecc = l
		}
	}
	return ecc, nil
}

// ConnectedComponents labels vertices by component using repeated BFS
// sweeps (batched k sources per sweep to amortize SpGEMM cost). Returns the
// component id per vertex and the number of components.
func (g *Graph) ConnectedComponents(opts ...pbspgemm.Option) ([]int32, int32, error) {
	n := g.Adj.NumRows
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var nextComp int32
	const batch = 16
	// One engine across all sweeps: the workspace warmed up by the first
	// sweep's multiplications serves every later one.
	eng, err := pbspgemm.NewEngine(noMask(opts)...)
	if err != nil {
		return nil, 0, err
	}
	next := int32(0) // unlabeled scan resumes where the last sweep stopped
	for {
		// Collect up to `batch` unlabeled seeds (distinct by construction:
		// each vertex is visited once by the monotone scan).
		var seeds []int32
		for ; next < n && len(seeds) < batch; next++ {
			if comp[next] == -1 {
				seeds = append(seeds, next)
			}
		}
		if len(seeds) == 0 {
			break
		}
		_, reached, err := g.multiSourceBFS(eng, seeds)
		if err != nil {
			return nil, 0, err
		}
		// Assign labels walking only the vertices each seed discovered.
		// Earlier seeds win: a later seed of the same component finds its
		// own vertex already labeled and claims nothing.
		for s, src := range seeds {
			if comp[src] != -1 {
				continue // an earlier seed of this batch reached src
			}
			id := nextComp
			nextComp++
			for _, v := range reached[s] {
				if comp[v] == -1 {
					comp[v] = id
				}
			}
		}
	}
	return comp, nextComp, nil
}

// APSPStep performs one min-plus relaxation of all-pairs shortest paths:
// D' = D ⊕ (D ⊗ D) over the tropical semiring, where stored entries are
// known path lengths and absent entries are +∞. Starting from a weighted
// adjacency matrix, ⌈log₂ n⌉ repeated steps converge to the full APSP
// closure (each step doubles the maximum hop count covered). The
// multiplication runs the PB-structured semiring kernel; the merge with the
// previous iterate is an element-wise min (EWiseAdd over MinPlus).
func APSPStep(d *pbspgemm.CSR, opts ...pbspgemm.Option) (*pbspgemm.CSR, error) {
	sr := pbspgemm.MinPlus()
	gd := pbspgemm.Float64Matrix(d)
	sq, err := pbspgemm.MultiplyOver(sr, gd.ToCSC(), gd, noMask(opts)...)
	if err != nil {
		return nil, err
	}
	relaxed, err := pbspgemm.EWiseAdd(sr, gd, sq)
	if err != nil {
		return nil, err
	}
	return pbspgemm.Float64CSR(relaxed), nil
}
