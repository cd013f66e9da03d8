package primitives

import (
	"fmt"
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return map[string]*graph.Graph{
		"single":      graph.NewBuilder(1).Build(),
		"edge":        graph.Path(2),
		"path10":      graph.Path(10),
		"cycle9":      graph.Cycle(9),
		"star12":      graph.Star(12),
		"grid4x5":     graph.Grid(4, 5),
		"gnp30":       graph.ConnectedGNP(30, 0.1, rng),
		"caterpillar": graph.Caterpillar(6, 2),
		"tree25":      graph.RandomTree(25, rng),
	}
}

func TestMinIDLeader(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int, error) {
				return MinIDLeader(nd), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range res.Outputs {
				if l != 0 {
					t.Fatalf("node %d elected %d, want 0", v, l)
				}
			}
			if res.Stats.Rounds != g.N() {
				t.Fatalf("rounds = %d, want n = %d", res.Stats.Rounds, g.N())
			}
		})
	}
}

func TestBFSTree(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			root := g.N() / 2
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (Tree, error) {
				return BFSTree(nd, root), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			dist, _ := g.BFS(root)
			childCount := 0
			for v, tr := range res.Outputs {
				if tr.Depth != dist[v] {
					t.Fatalf("node %d: depth %d, want %d", v, tr.Depth, dist[v])
				}
				if v == root {
					if tr.Parent != -1 {
						t.Fatalf("root has parent %d", tr.Parent)
					}
				} else {
					if tr.Parent == -1 {
						t.Fatalf("node %d has no parent", v)
					}
					if !g.HasEdge(v, tr.Parent) {
						t.Fatalf("node %d: parent %d is not a neighbor", v, tr.Parent)
					}
					if dist[tr.Parent] != dist[v]-1 {
						t.Fatalf("node %d: parent depth mismatch", v)
					}
					// Child lists are consistent with parents.
					found := false
					for _, c := range res.Outputs[tr.Parent].Children {
						if c == v {
							found = true
						}
					}
					if !found {
						t.Fatalf("node %d missing from its parent's child list", v)
					}
				}
				childCount += len(tr.Children)
			}
			if childCount != g.N()-1 {
				t.Fatalf("total children = %d, want %d", childCount, g.N()-1)
			}
		})
	}
}

func TestConvergecastSum(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int64, error) {
				tr := BFSTree(nd, 0)
				return ConvergecastSum(nd, tr, int64(nd.ID()+1)), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			n := int64(g.N())
			want := n * (n + 1) / 2
			if res.Outputs[0] != want {
				t.Fatalf("root sum = %d, want %d", res.Outputs[0], want)
			}
			for v := 1; v < g.N(); v++ {
				if res.Outputs[v] != 0 {
					t.Fatalf("non-root %d returned %d", v, res.Outputs[v])
				}
			}
		})
	}
}

func TestBroadcastFromRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			// The value must fit the bandwidth budget even on tiny graphs
			// (n=2 ⇒ B=4 bits), as the primitive's contract requires.
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int64, error) {
				tr := BFSTree(nd, 0)
				return BroadcastFromRoot(nd, tr, 13), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, got := range res.Outputs {
				if got != 13 {
					t.Fatalf("node %d got %d", v, got)
				}
			}
		})
	}
}

func TestGatherAtRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int, error) {
				tr := BFSTree(nd, 0)
				// Every node contributes (id+1) items carrying its id.
				items := make([]congest.Message, nd.ID()+1)
				for i := range items {
					items[i] = congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N()))
				}
				got := GatherAtRoot(nd, tr, items)
				if nd.ID() != 0 {
					if got != nil {
						return 0, fmt.Errorf("non-root received items")
					}
					return 0, nil
				}
				return len(got), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			want := n * (n + 1) / 2
			if res.Outputs[0] != want {
				t.Fatalf("root collected %d items, want %d", res.Outputs[0], want)
			}
		})
	}
}

func TestGatherAtRootContentIntegrity(t *testing.T) {
	g := graph.ConnectedGNP(20, 0.15, rand.New(rand.NewSource(3)))
	res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (map[int64]int, error) {
		tr := BFSTree(nd, 0)
		items := []congest.Message{congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N()))}
		got := GatherAtRoot(nd, tr, items)
		if nd.ID() != 0 {
			return nil, nil
		}
		counts := map[int64]int{}
		for _, m := range got {
			counts[m.Int()]++
		}
		return counts, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Outputs[0]
	for v := 0; v < g.N(); v++ {
		if counts[int64(v)] != 1 {
			t.Fatalf("item from node %d seen %d times", v, counts[int64(v)])
		}
	}
}

func TestGatherRoundsLinearInItems(t *testing.T) {
	// Lemma 2: gathering c items/node takes O(c·n) rounds. Measure total
	// rounds for c=1 vs c=4 on a fixed path and check growth is ≈ linear in
	// the total item count, not quadratic.
	rounds := func(c int) int {
		g := graph.Path(30)
		res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int, error) {
			tr := BFSTree(nd, 0)
			items := make([]congest.Message, c)
			for i := range items {
				items[i] = congest.Flag()
			}
			GatherAtRoot(nd, tr, items)
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	r1, r4 := rounds(1), rounds(4)
	// Fixed overhead (tree + convergecast + broadcast) is ~3n; the variable
	// part is the item count (30 vs 120). So r4 - r1 should be ≈ 90.
	if d := r4 - r1; d < 80 || d > 120 {
		t.Fatalf("r1=%d r4=%d: delta %d outside linear-pipelining range", r1, r4, d)
	}
}

func TestTwoHopMax(t *testing.T) {
	g := graph.Path(7)
	res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int64, error) {
		return TwoHopMax(nd, int64(nd.ID())), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// On a path, max over closed 2-hop ball of i is min(i+2, 6).
	for v, got := range res.Outputs {
		want := int64(v + 2)
		if want > 6 {
			want = 6
		}
		if got != want {
			t.Fatalf("node %d: two-hop max %d, want %d", v, got, want)
		}
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestTwoHopMaxMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g := graph.ConnectedGNP(25, 0.12, rng)
		vals := make([]int64, g.N())
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int64, error) {
			return TwoHopMax(nd, vals[nd.ID()]), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			ball := g.TwoHopNeighborhood(v)
			want := vals[v]
			ball.ForEach(func(u int) bool {
				if vals[u] > want {
					want = vals[u]
				}
				return true
			})
			if res.Outputs[v] != want {
				t.Fatalf("node %d: %d, want %d", v, res.Outputs[v], want)
			}
		}
	}
}

func TestFloodItemsFromRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) ([]int64, error) {
				tr := BFSTree(nd, 0)
				var items []congest.Message
				if nd.ID() == 0 {
					// Root floods three ordered values.
					for _, v := range []int64{7, 3, 11} {
						items = append(items, congest.NewIntWidth(v, 4))
					}
				}
				got := FloodItemsFromRoot(nd, tr, items)
				out := make([]int64, 0, len(got))
				for _, m := range got {
					out = append(out, m.Int())
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, got := range res.Outputs {
				if len(got) != 3 || got[0] != 7 || got[1] != 3 || got[2] != 11 {
					t.Fatalf("node %d received %v (order must be preserved)", v, got)
				}
			}
		})
	}
}

func TestGatherRejectsOversizedItems(t *testing.T) {
	// An item beyond the bandwidth budget must abort the run with an error
	// (via the engine's panic-recovery path), not hang or truncate.
	g := graph.Path(3)
	_, err := congest.Run(congest.Config{Graph: g, BandwidthFactor: 1},
		func(nd *congest.Node) (int, error) {
			tr := BFSTree(nd, 0)
			var items []congest.Message
			if nd.ID() == 2 {
				items = []congest.Message{congest.NewIntWidth(123456, 30)}
			}
			GatherAtRoot(nd, tr, items)
			return 0, nil
		})
	if err == nil {
		t.Fatal("oversized gather item accepted")
	}
}

func TestPrimitivesWorkInCliqueModel(t *testing.T) {
	// The primitives speak strictly over G-edges, so their semantics must
	// be identical under the CONGESTED CLIQUE model.
	g := graph.Grid(3, 4)
	for _, model := range []congest.Model{congest.CONGEST, congest.CongestedClique} {
		res, err := congest.Run(congest.Config{Graph: g, Model: model},
			func(nd *congest.Node) (int64, error) {
				tr := BFSTree(nd, 0)
				sum := ConvergecastSum(nd, tr, int64(nd.ID()))
				return BroadcastFromRoot(nd, tr, sum), nil
			})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		n := int64(g.N())
		want := n * (n - 1) / 2
		for v, got := range res.Outputs {
			if got != want {
				t.Fatalf("%v: node %d got %d, want %d", model, v, got, want)
			}
		}
	}
}

func TestIdleKeepsLockstep(t *testing.T) {
	g := graph.Path(4)
	_, err := congest.Run(congest.Config{Graph: g}, func(nd *congest.Node) (int, error) {
		if nd.ID() == 0 {
			Idle(nd, 3)
			return 0, nil
		}
		for i := 0; i < 3; i++ {
			nd.NextRound()
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
