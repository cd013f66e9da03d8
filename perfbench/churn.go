package main

import (
	"fmt"
	"math/rand"

	"powergraph/internal/graph"
)

// churnGen is a persistent, seeded edge-churn stream over a base graph.
// Each batch first deletes edges that earlier batches inserted, then inserts
// edges that are absent from the current graph. The base graph is never
// touched, so a connected base stays connected (mvc-congest never hits its
// connectivity requirement), and every batch changes the graph's content:
// no edge is inserted and deleted within one batch.
type churnGen struct {
	rng  *rand.Rand
	base *graph.Graph
	// ins edges are inserted per batch; once pool inserted edges are live,
	// each batch also deletes ins of them, so the live set stays bounded.
	ins, pool int
	live      map[[2]int]int // live inserted edge → its index in order
	order     [][2]int
}

func newChurnGen(base *graph.Graph, seed int64, ins int) *churnGen {
	return &churnGen{
		rng:  rand.New(rand.NewSource(seed)),
		base: base,
		ins:  ins,
		pool: 4 * ins,
		live: make(map[[2]int]int),
	}
}

// next returns the next batch of edits: deletions first, then insertions.
func (c *churnGen) next() []graph.EdgeEdit {
	edits := make([]graph.EdgeEdit, 0, 2*c.ins)
	deleted := make(map[[2]int]bool)
	if len(c.order) >= c.pool {
		for i := 0; i < c.ins; i++ {
			e := c.order[c.rng.Intn(len(c.order))]
			c.drop(e)
			deleted[e] = true
			edits = append(edits, graph.EdgeEdit{U: e[0], V: e[1], Del: true})
		}
	}
	n := c.base.N()
	for inserted, tries := 0, 0; inserted < c.ins; tries++ {
		if tries > 1000*c.ins {
			panic(fmt.Sprintf("churn: no free vertex pair found in %d tries", tries))
		}
		u, v := c.rng.Intn(n), c.rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if _, ok := c.live[e]; ok || deleted[e] || c.base.HasEdge(u, v) {
			continue
		}
		c.live[e] = len(c.order)
		c.order = append(c.order, e)
		edits = append(edits, graph.EdgeEdit{U: u, V: v})
		inserted++
	}
	return edits
}

// drop removes e from the live set by swapping the last entry into its slot.
func (c *churnGen) drop(e [2]int) {
	i := c.live[e]
	last := c.order[len(c.order)-1]
	c.order[i] = last
	c.live[last] = i
	c.order = c.order[:len(c.order)-1]
	delete(c.live, e)
}

// rebuild constructs, independently of graph.Overlay, the graph that results
// from applying batches in order to base: an edge set edited by plain map
// operations, then a fresh graph.Builder. Weights carry over from base. An
// edit that does not fit the current edge set is an error.
func rebuild(base *graph.Graph, batches [][]graph.EdgeEdit) (*graph.Graph, error) {
	edges := make(map[[2]int]bool, base.M())
	for _, e := range base.Edges() {
		edges[key(e[0], e[1])] = true
	}
	for bi, batch := range batches {
		for _, ed := range batch {
			k := key(ed.U, ed.V)
			if edges[k] == !ed.Del {
				return nil, fmt.Errorf("batch %d: edit %+v does not fit the edge set", bi, ed)
			}
			if ed.Del {
				delete(edges, k)
			} else {
				edges[k] = true
			}
		}
	}
	b := graph.NewBuilder(base.N())
	for e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	if base.Weighted() {
		for v := 0; v < base.N(); v++ {
			b.SetWeight(v, base.Weight(v))
		}
	}
	return b.Build(), nil
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
