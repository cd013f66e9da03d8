package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// sparsifyOut is one node's observable outcome of a StepSparsify stage.
type sparsifyOut struct {
	Near bool
	Cert []int // the neighbors whose edges this node reports
}

// sparsifyProgram runs StepSparsify alone, seeded with this node's
// U-membership and its U-neighbors, the way Phase II's final status
// exchange seeds it.
type sparsifyProgram struct {
	r   int
	u   *bitset.Set
	sp  StepSparsify
	out sparsifyOut
	on  bool
}

func (p *sparsifyProgram) Step(nd *congest.Node) (bool, error) {
	if !p.on {
		p.on = true
		var uNbrs []int
		for _, v := range nd.Neighbors() {
			if p.u.Contains(v) {
				uNbrs = append(uNbrs, v)
			}
		}
		p.sp.Reset(p.r, p.u.Contains(nd.ID()), uNbrs)
	}
	if !p.sp.Step(nd) {
		return false, nil
	}
	p.out = sparsifyOut{Near: p.sp.Near(), Cert: p.sp.Certificate(nd)}
	return true, nil
}

func (p *sparsifyProgram) Output() sparsifyOut { return p.out }

// distToSet returns every vertex's G-distance to the nearest member of u
// (-1 when u is unreachable).
func distToSet(g *graph.Graph, u *bitset.Set) []int {
	dist := make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	u.ForEach(func(s int) bool {
		d, _ := g.BFS(s)
		for v, dv := range d {
			if dv >= 0 && (dist[v] < 0 || dv < dist[v]) {
				dist[v] = dv
			}
		}
		return true
	})
	return dist
}

// TestSparsifyCertificateRebuildsInducedPower is the reference test of the
// sparsified Phase-II gather at the primitive level: on random connected
// graphs with a seeded random U, for every power r = 1…6 (the r ≥ 5 stages
// run the full layered flood), sequential and sharded,
//
//   - every reported pair is a G-edge,
//   - Near() holds exactly at the nodes within ⌊(r−1)/2⌋ hops of U,
//   - the stage spans exactly SparsifyRounds(r) rounds, and
//   - the r-th power of the reported edges, induced on U, equals Gʳ[U] —
//     the leader's reconstruction is exact.
func TestSparsifyCertificateRebuildsInducedPower(t *testing.T) {
	for _, n := range []int{9, 17, 26, 40} {
		for r := 1; r <= 6; r++ {
			rng := rand.New(rand.NewSource(int64(1000*n + r)))
			g := graph.ConnectedGNP(n, 2.5/float64(n), rng)
			u := bitset.New(n)
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					u.Add(v)
				}
			}
			dist := distToSet(g, u)
			wantH, wantOrig := g.Power(r).InducedSubgraph(u)

			var outs []sparsifyOut
			for _, shards := range []int{0, 3} {
				cell := fmt.Sprintf("n=%d r=%d shards=%d", n, r, shards)
				col := &obs.Collector{}
				res, err := congest.RunProgram(congest.Config{Graph: g, Model: congest.CONGEST, Shards: shards, Tracer: col},
					func(*congest.Node) congest.StepProgram[sparsifyOut] { return &sparsifyProgram{r: r, u: u} })
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if wantSpan := fmt.Sprintf("phase2-sparsify*1:%d", SparsifyRounds(r)); col.SpanSummary() != wantSpan {
					t.Fatalf("%s: span %q, want %q", cell, col.SpanSummary(), wantSpan)
				}
				if outs != nil && !reflect.DeepEqual(outs, res.Outputs) {
					t.Fatalf("%s: sharded sweep diverges from sequential", cell)
				}
				outs = res.Outputs

				b := graph.NewBuilder(n)
				for v, o := range res.Outputs {
					if near := dist[v] >= 0 && dist[v] <= (r-1)/2; o.Near != near {
						t.Fatalf("%s node %d: Near() = %v, dist to U %d", cell, v, o.Near, dist[v])
					}
					for _, w := range o.Cert {
						if !g.HasEdge(v, w) {
							t.Fatalf("%s node %d: reported pair {%d,%d} is not a G-edge", cell, v, v, w)
						}
						if _, err := b.AddEdgeIfAbsent(v, w); err != nil {
							t.Fatal(err)
						}
					}
				}
				h, orig := b.Build().Power(r).InducedSubgraph(u)
				if !slices.Equal(orig, wantOrig) {
					t.Fatalf("%s: induced vertex order %v, want %v", cell, orig, wantOrig)
				}
				if got, want := h.Edges(), wantH.Edges(); !slices.Equal(got, want) {
					t.Fatalf("%s: rebuilt Gʳ[U] has %d edges, want %d:\ngot  %v\nwant %v", cell, len(got), len(want), got, want)
				}
			}
		}
	}
}
