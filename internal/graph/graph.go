// Package graph provides the static undirected graph substrate used by every
// other package in this repository: flat CSR adjacency storage (indptr /
// indices arrays in the style of large-scale graph engines), vertex weights,
// power-graph (G², Gʳ) computation, generators, and basic traversal
// algorithms. Dense-graph helpers (adjacency bitset rows) are kept for small
// graphs, where O(n) bits per vertex is cheap, and elided above a size
// cutoff so million-node graphs stay O(n + m) memory.
//
// Graphs are immutable after construction via Builder, which makes them safe
// to share — across the CONGEST simulator's nodes (at any shard count) and
// across harness workers running simulations on the same
// instance — without locking.
package graph

import (
	"fmt"
	"math"
	"sort"

	"powergraph/internal/bitset"
)

// rowsCutoff bounds the vertex count up to which adjacency bitset rows are
// materialized eagerly at Build time. Rows cost n bits per vertex (O(n²)
// total), which is fine at kernel/oracle scale but fatal at n ≈ 10⁶
// (≈ 125 GB); above the cutoff HasEdge falls back to binary search over the
// CSR row and AdjRow materializes on demand.
const rowsCutoff = 1 << 14

// Graph is an immutable, simple (no self-loops, no multi-edges), undirected
// graph on vertices {0, …, n-1} with optional positive vertex weights.
//
// Adjacency is stored once, in compressed sparse row form: indptr[v] ..
// indptr[v+1] delimits v's sorted neighbor row inside indices. A widened
// copy (flat) backs the []int views handed out by Adj so hot loops keep
// zero-allocation access without converting element widths.
//
// All accessors are safe for concurrent use because the structure never
// changes after Build.
type Graph struct {
	n       int
	m       int
	indptr  []int32       // CSR row offsets, len n+1
	indices []int32       // CSR neighbor ids, len 2m, sorted within each row
	flat    []int         // same content as indices, widened; backs Adj views
	rows    []*bitset.Set // adjacency bitsets; nil when n > rowsCutoff
	weights []int64       // per-vertex weights; nil means all weights are 1
	names   []string      // optional debug names; nil means "v<i>"
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n       int
	edges   map[[2]int]struct{}
	weights []int64
	names   []string
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, edges: make(map[[2]int]struct{})}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with an error so construction bugs in gadget builders surface
// immediately rather than silently producing the wrong graph.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if _, dup := b.edges[key]; dup {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	b.edges[key] = struct{}{}
	return nil
}

// MustAddEdge is AddEdge that panics on error; for use in generators and
// tests where the arguments are known valid by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeIfAbsent inserts {u,v} unless it already exists; it still rejects
// out-of-range endpoints and self-loops. It reports whether the edge was
// newly added. Gadget constructions that share vertices use this to merge
// parallel requirements.
func (b *Builder) AddEdgeIfAbsent(u, v int) (added bool, err error) {
	err = b.AddEdge(u, v)
	if err == nil {
		return true, nil
	}
	if u != v && u >= 0 && v >= 0 && u < b.n && v < b.n {
		return false, nil // duplicate: tolerated
	}
	return false, err
}

// SetWeight assigns weight w to vertex v. Weights default to 1.
func (b *Builder) SetWeight(v int, w int64) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: SetWeight index %d out of range", v))
	}
	if b.weights == nil {
		b.weights = make([]int64, b.n)
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
	b.weights[v] = w
}

// SetName assigns a debug name to vertex v (used by gadget constructions so
// test failures identify vertices as e.g. "a1_3" or "DP[e]{2}").
func (b *Builder) SetName(v int, name string) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: SetName index %d out of range", v))
	}
	if b.names == nil {
		b.names = make([]string, b.n)
	}
	b.names[v] = name
}

// Build produces the immutable Graph in CSR form. The Builder may be reused
// afterwards, but further mutations do not affect the built graph.
func (b *Builder) Build() *Graph {
	if 2*int64(len(b.edges)) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges exceed the int32 CSR index space", len(b.edges)))
	}
	deg := make([]int32, b.n+1)
	for e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	indptr := deg // reuse: prefix-summed in place
	for v := 0; v < b.n; v++ {
		indptr[v+1] += indptr[v]
	}
	indices := make([]int32, 2*len(b.edges))
	fill := make([]int32, b.n)
	for e := range b.edges {
		u, v := e[0], e[1]
		indices[indptr[u]+fill[u]] = int32(v)
		indices[indptr[v]+fill[v]] = int32(u)
		fill[u]++
		fill[v]++
	}
	g := &Graph{
		n:       b.n,
		m:       len(b.edges),
		indptr:  indptr,
		indices: indices,
	}
	for v := 0; v < b.n; v++ {
		row := indices[indptr[v]:indptr[v+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	g.finish()
	if b.weights != nil {
		g.weights = make([]int64, b.n)
		copy(g.weights, b.weights)
	}
	if b.names != nil {
		g.names = make([]string, b.n)
		copy(g.names, b.names)
	}
	return g
}

// finish derives the widened flat view and (below the cutoff) the bitset
// rows from the already-sorted CSR arrays.
func (g *Graph) finish() {
	g.flat = make([]int, len(g.indices))
	for i, u := range g.indices {
		g.flat[i] = int(u)
	}
	if g.n <= rowsCutoff {
		g.rows = make([]*bitset.Set, g.n)
		for v := 0; v < g.n; v++ {
			g.rows[v] = bitset.FromIndices(g.n, g.Adj(v)...)
		}
	}
}

// fromCSR assembles a Graph directly from sorted CSR arrays (each row
// strictly increasing, symmetric, no self-loops). Bulk constructors — the
// bounded-BFS power expansion — use it to bypass the Builder's edge map.
func fromCSR(n int, indptr, indices []int32) *Graph {
	g := &Graph{n: n, m: len(indices) / 2, indptr: indptr, indices: indices}
	g.finish()
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.indptr[v+1] - g.indptr[v]) }

// MaxDegree returns the maximum degree Δ of the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for v := 0; v < g.n; v++ {
		if w := g.indptr[v+1] - g.indptr[v]; w > d {
			d = w
		}
	}
	return int(d)
}

// IndPtr returns the CSR row-offset array (length n+1) as a shared read-only
// view: vertex v's neighbors occupy Indices()[IndPtr()[v]:IndPtr()[v+1]].
func (g *Graph) IndPtr() []int32 { return g.indptr }

// Indices returns the CSR neighbor array (length 2m, sorted within each row)
// as a shared read-only view.
func (g *Graph) Indices() []int32 { return g.indices }

// NeighborRange returns the half-open [lo, hi) range of v's row inside
// Indices — the allocation-free iteration form consumed by the engines.
func (g *Graph) NeighborRange(v int) (lo, hi int32) {
	return g.indptr[v], g.indptr[v+1]
}

// Adj returns the sorted neighbor list of v as a shared read-only view into
// the flat CSR buffer. Callers must not modify the returned slice; use
// Neighbors for a copy.
func (g *Graph) Adj(v int) []int {
	return g.flat[g.indptr[v]:g.indptr[v+1]:g.indptr[v+1]]
}

// Neighbors returns a fresh copy of the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int {
	adj := g.Adj(v)
	out := make([]int, len(adj))
	copy(out, adj)
	return out
}

// AdjRow returns the adjacency bitset of v. Below the rows cutoff this is a
// shared read-only view (callers must Clone before mutating); above it a
// fresh set is materialized from the CSR row on every call, so large-graph
// hot paths should iterate Adj instead.
func (g *Graph) AdjRow(v int) *bitset.Set {
	if g.rows != nil {
		return g.rows[v]
	}
	return bitset.FromIndices(g.n, g.Adj(v)...)
}

// HasEdge reports whether {u, v} is an edge: one bitset probe below the rows
// cutoff, binary search over the smaller CSR row above it.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.rows != nil {
		return g.rows[u].Contains(v)
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	row := g.indices[g.indptr[u]:g.indptr[u+1]]
	t := int32(v)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == t
}

// Weighted reports whether the graph carries non-default vertex weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Weight returns the weight of vertex v (1 if the graph is unweighted).
func (g *Graph) Weight(v int) int64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[v]
}

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() int64 {
	var t int64
	for v := 0; v < g.n; v++ {
		t += g.Weight(v)
	}
	return t
}

// SetWeightOf returns a fresh sum of weights over the vertex set s.
func (g *Graph) SetWeightOf(s *bitset.Set) int64 {
	var t int64
	s.ForEach(func(v int) bool {
		t += g.Weight(v)
		return true
	})
	return t
}

// Name returns the debug name of v, defaulting to "v<i>".
func (g *Graph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Edges returns all edges as canonical (u < v) pairs, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Adj(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// ClosedNeighborhood returns N[v] = N(v) ∪ {v} as a fresh bitset.
func (g *Graph) ClosedNeighborhood(v int) *bitset.Set {
	s := bitset.FromIndices(g.n, g.Adj(v)...)
	s.Add(v)
	return s
}
