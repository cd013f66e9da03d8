package primitives

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// Reset must leave a stage exactly as its New* constructor would: a program
// that reuses one instance across k chained stages has to be
// indistinguishable from one that builds a fresh instance per stage. The
// test runs both on random connected graphs and compares every delivered
// message, every stage output and the run Stats.

// resetStages is the number of chained stages per run.
const resetStages = 4

// stepper is what every step primitive has in common.
type stepper interface{ Step(nd *congest.Node) bool }

// resetCase chains one primitive: start begins stage k at node nd. held is
// nil in fresh mode (start must construct a new instance) and the reused
// instance otherwise (start must Reset and return it); prev is the finished
// previous stage (nil at k = 0), so stages can feed on their predecessor's
// output as the algorithms chain them.
type resetCase struct {
	name  string
	start func(nd *congest.Node, env *resetEnv, k int, prev, held stepper) stepper
	out   func(s stepper) string
}

// resetEnv is the per-graph input every node derives its stage arguments
// from: a BFS tree rooted at 0 and per-hop candidate routes.
type resetEnv struct {
	g      *graph.Graph
	trees  []Tree
	routes map[int][][]CandRoute // hops → node → routes
	votes  map[int][]int         // hops → node → voteFor
}

func (e *resetEnv) candidate(v int) bool { return v%3 == 0 }

func (e *resetEnv) rank(v int) int64 { return int64((v*37 + 11) % 29) }

// candNbrs lists v's neighboring candidates in ascending id order.
func (e *resetEnv) candNbrs(v int) []int {
	var out []int
	for _, u := range e.g.Adj(v) {
		if e.candidate(u) {
			out = append(out, u)
		}
	}
	return out
}

func newResetEnv(g *graph.Graph) *resetEnv {
	e := &resetEnv{g: g, routes: map[int][][]CandRoute{}, votes: map[int][]int{}}
	dist, _ := g.BFS(0)
	e.trees = make([]Tree, g.N())
	for v := range e.trees {
		t := Tree{Root: 0, Parent: -1, Depth: dist[v]}
		for _, u := range g.Adj(v) {
			if t.Parent == -1 && dist[u] == dist[v]-1 {
				t.Parent = u
			}
		}
		e.trees[v] = t
	}
	for v := range e.trees {
		if p := e.trees[v].Parent; p >= 0 {
			e.trees[p].Children = append(e.trees[p].Children, v)
		}
	}
	for hops := 1; hops <= 3; hops++ {
		e.routes[hops], e.votes[hops] = e.adoptions(hops)
	}
	return e
}

// adoptions replays hops chained rank floods centrally, recording every
// node's adoption routes and final vote exactly as StepRankFlood's running
// best and BestFrom would.
func (e *resetEnv) adoptions(hops int) ([][]CandRoute, []int) {
	n := e.g.N()
	type best struct{ rank, id int64 }
	cur := make([]best, n)
	routes := make([][]CandRoute, n)
	for v := range cur {
		cur[v] = best{-1, -1}
		if e.candidate(v) {
			cur[v] = best{e.rank(v), int64(v)}
			routes[v] = append(routes[v], CandRoute{Cand: v, From: -1, Lvl: 0})
		}
	}
	for lvl := 1; lvl <= hops; lvl++ {
		next := slices.Clone(cur)
		for v := range next {
			from := -1
			for _, u := range e.g.Adj(v) {
				b := cur[u]
				if b.rank < 0 {
					continue
				}
				if next[v].rank < 0 || b.rank < next[v].rank || (b.rank == next[v].rank && b.id < next[v].id) {
					next[v], from = b, u
				}
			}
			if from >= 0 && next[v].id != cur[v].id {
				routes[v] = append(routes[v], CandRoute{Cand: int(next[v].id), From: from, Lvl: lvl})
			}
		}
		cur = next
	}
	votes := make([]int, n)
	for v := range votes {
		votes[v] = int(cur[v].id)
	}
	return routes, votes
}

func sample(v, k int) int64 { return int64((v*7919 + k*104729 + 5) % 1021) }

var resetCases = []resetCase{
	{
		name: "min-id-leader",
		start: func(nd *congest.Node, _ *resetEnv, _ int, _, held stepper) stepper {
			if held == nil {
				return NewStepMinIDLeader(nd)
			}
			held.(*StepMinIDLeader).Reset(nd)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepMinIDLeader).Leader()) },
	},
	{
		name: "bfs-tree",
		start: func(nd *congest.Node, _ *resetEnv, k int, _, held stepper) stepper {
			root := (k * 5) % nd.N()
			if held == nil {
				return NewStepBFSTree(nd, root)
			}
			held.(*StepBFSTree).Reset(nd, root)
			return held
		},
		out: func(s stepper) string { return fmt.Sprintf("%+v", s.(*StepBFSTree).Tree()) },
	},
	{
		name: "convergecast-sum",
		start: func(nd *congest.Node, env *resetEnv, k int, _, held stepper) stepper {
			t := &env.trees[nd.ID()]
			v := sample(nd.ID(), k) % 17
			if held == nil {
				return NewStepConvergecastSum(nd, t, v)
			}
			held.(*StepConvergecastSum).Reset(nd, t, v)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepConvergecastSum).Sum()) },
	},
	{
		name: "broadcast-from-root",
		start: func(nd *congest.Node, env *resetEnv, k int, prev, held stepper) stepper {
			t := &env.trees[nd.ID()]
			v := int64(k + 1)
			if prev != nil {
				v += prev.(*StepBroadcastFromRoot).Value()
			}
			if held == nil {
				return NewStepBroadcastFromRoot(nd, t, v)
			}
			held.(*StepBroadcastFromRoot).Reset(nd, t, v)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepBroadcastFromRoot).Value()) },
	},
	{
		name: "gather-at-root",
		start: func(nd *congest.Node, env *resetEnv, k int, _, held stepper) stepper {
			t := &env.trees[nd.ID()]
			var items []congest.Message
			for i := 0; i < (nd.ID()+k)%3; i++ {
				items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(i+k)))
			}
			if held == nil {
				return NewStepGatherAtRoot(nd, t, items)
			}
			held.(*StepGatherAtRoot).Reset(nd, t, items)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepGatherAtRoot).Collected()) },
	},
	{
		name: "flood-items-from-root",
		start: func(nd *congest.Node, env *resetEnv, k int, _, held stepper) stepper {
			t := &env.trees[nd.ID()]
			var items []congest.Message
			if t.Parent == -1 {
				for i := 0; i <= (k*3)%5; i++ {
					items = append(items, congest.NewInt(int64(10*k+i)))
				}
			}
			if held == nil {
				return NewStepFloodItemsFromRoot(nd, t, items)
			}
			held.(*StepFloodItemsFromRoot).Reset(nd, t, items)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepFloodItemsFromRoot).Items()) },
	},
	{
		name: "hop-max",
		start: func(nd *congest.Node, _ *resetEnv, k int, _, held stepper) stepper {
			width, hops := 0, 1+k%3
			if k%2 == 1 {
				width = 11
			}
			v := sample(nd.ID(), k)
			if held == nil {
				return NewStepHopMax(v, width, hops)
			}
			held.(*StepHopMax).Reset(v, width, hops)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepHopMax).Max()) },
	},
	{
		name: "min-flood",
		start: func(nd *congest.Node, _ *resetEnv, k int, prev, held stepper) stepper {
			own := int64(-1)
			switch {
			case k%2 == 1:
				own = prev.(*StepMinFlood).Min() // chained hop of one deep flood
			case (nd.ID()+k)%4 == 0:
				own = sample(nd.ID(), k)
			}
			if held == nil {
				return NewStepMinFlood(own, 11)
			}
			held.(*StepMinFlood).Reset(own, 11)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepMinFlood).Min()) },
	},
	{
		name: "rank-flood",
		start: func(nd *congest.Node, env *resetEnv, k int, prev, held stepper) stepper {
			rank, id := int64(-1), int64(nd.ID())
			if k%2 == 1 {
				rank, id = prev.(*StepRankFlood).Best()
			} else if env.candidate(nd.ID()) {
				rank = env.rank(nd.ID()) + int64(k)
			}
			w := congest.IDBits(nd.N())
			if held == nil {
				return NewStepRankFlood(rank, id, 6, w)
			}
			held.(*StepRankFlood).Reset(rank, id, 6, w)
			return held
		},
		out: func(s stepper) string {
			f := s.(*StepRankFlood)
			r, id := f.Best()
			return fmt.Sprint(r, id, f.BestFrom(), f.Senders())
		},
	},
	{
		name: "candidate-min-flood",
		start: func(nd *congest.Node, env *resetEnv, k int, _, held stepper) stepper {
			hops := 1 + k%2
			v := nd.ID()
			voteFor, own := env.votes[hops][v], int64(-1)
			if voteFor >= 0 && (v+k)%5 != 0 {
				own = sample(v, k)
			}
			cands := env.candNbrs(v)
			w := congest.IDBits(nd.N())
			if held == nil {
				return NewStepCandidateMinFloodR(voteFor, own, cands, env.candidate(v), w, 11, hops)
			}
			held.(*StepCandidateMinFlood).Reset(voteFor, own, cands, env.candidate(v), w, 11, hops)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepCandidateMinFlood).Min()) },
	},
	{
		name: "candidate-min-flood-routes",
		start: func(nd *congest.Node, env *resetEnv, k int, _, held stepper) stepper {
			hops := 1 + k%3
			v := nd.ID()
			voteFor, own := env.votes[hops][v], int64(-1)
			if voteFor >= 0 && (v+k)%5 != 0 {
				own = sample(v, k)
			}
			routes := env.routes[hops][v]
			w := congest.IDBits(nd.N())
			if held == nil {
				return NewStepCandidateMinFloodRoutes(voteFor, own, routes, env.candidate(v), w, 11, hops)
			}
			held.(*StepCandidateMinFlood).ResetRoutes(voteFor, own, routes, env.candidate(v), w, 11, hops)
			return held
		},
		out: func(s stepper) string { return fmt.Sprint(s.(*StepCandidateMinFlood).Min()) },
	},
	{
		name: "sparsify",
		start: func(nd *congest.Node, _ *resetEnv, k int, _, held stepper) stepper {
			r := 3 + k
			inU := func(v int) bool { return (v+k)%3 == 0 }
			var uNbrs []int
			for _, v := range nd.Neighbors() {
				if inU(v) {
					uNbrs = append(uNbrs, v)
				}
			}
			if held == nil {
				return NewStepSparsify(r, inU(nd.ID()), uNbrs)
			}
			held.(*StepSparsify).Reset(r, inU(nd.ID()), uNbrs)
			return held
		},
		out: func(s stepper) string {
			sp := s.(*StepSparsify)
			return fmt.Sprint(sp.Near(), sp.Label())
		},
	},
	{
		name: "weighted-local-ratio",
		start: func(nd *congest.Node, _ *resetEnv, k int, _, held stepper) stepper {
			iters := 1 + k%3
			if held == nil {
				return NewStepWeightedLocalRatio(nd, iters, 6, testPayees)
			}
			held.(*StepWeightedLocalRatio).Reset(nd, iters, 6, testPayees)
			return held
		},
		out: func(s stepper) string {
			w := s.(*StepWeightedLocalRatio)
			return fmt.Sprint(w.InR(), w.InS(), w.UNbrs())
		},
	},
	{
		name: "leader-pipeline",
		start: func(nd *congest.Node, _ *resetEnv, k int, _, held stepper) stepper {
			var items []congest.Message
			for i := 0; i < (nd.ID()+k)%3; i++ {
				items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(i)))
			}
			solve := func(gathered []congest.Message) []congest.Message {
				var down []congest.Message
				for i := len(gathered) - 1; i >= 0 && len(down) < k+1; i-- {
					down = append(down, gathered[i])
				}
				return down
			}
			if held == nil {
				return NewStepLeaderPipeline(nd, items, solve)
			}
			held.(*StepLeaderPipeline).Reset(nd, items, solve)
			return held
		},
		out: func(s stepper) string {
			p := s.(*StepLeaderPipeline)
			return fmt.Sprint(p.Leader(), p.Items())
		},
	},
}

// testPayees pays every live neighbor at least as heavy as this node, so
// the weighted loop both selects and retires nodes.
func testPayees(nd *congest.Node, nbrWeight []int64, inRNbr []bool, payees []int) []int {
	for i, u := range nd.Neighbors() {
		if inRNbr[i] && nbrWeight[i] >= nd.Weight() {
			payees = append(payees, u)
		}
	}
	return payees
}

// resetProbe chains resetStages stages of one case, logging every delivery
// and every stage output.
type resetProbe struct {
	c     *resetCase
	env   *resetEnv
	reuse bool
	k     int
	cur   stepper
	prev  stepper
	log   strings.Builder
}

func (p *resetProbe) Step(nd *congest.Node) (bool, error) {
	if len(nd.Recv()) > 0 {
		fmt.Fprintf(&p.log, "r%d%v ", nd.Round(), nd.Recv())
	}
	for {
		if p.cur == nil {
			var held stepper
			if p.reuse {
				held = p.prev
			}
			p.cur = p.c.start(nd, p.env, p.k, p.prev, held)
		}
		if !p.cur.Step(nd) {
			return false, nil
		}
		fmt.Fprintf(&p.log, "out%d=%s ", p.k, p.c.out(p.cur))
		p.k++
		p.prev, p.cur = p.cur, nil
		if p.k == resetStages {
			return true, nil
		}
	}
}

func (p *resetProbe) Output() string { return p.log.String() }

func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4; trial++ {
		n := 6 + rng.Intn(14)
		g := graph.WithRandomWeights(graph.ConnectedGNP(n, 0.3, rng), 5, rng)
		env := newResetEnv(g)
		for ci := range resetCases {
			c := &resetCases[ci]
			for _, shards := range []int{1, 2, 3, 7} {
				run := func(reuse bool) *congest.Result[string] {
					res, err := congest.RunProgram(congest.Config{Graph: g, Shards: shards, BandwidthFactor: 8},
						func(*congest.Node) congest.StepProgram[string] {
							return &resetProbe{c: c, env: env, reuse: reuse}
						})
					if err != nil {
						t.Fatalf("%s n=%d shards=%d reuse=%v: %v", c.name, n, shards, reuse, err)
					}
					return res
				}
				fresh, reused := run(false), run(true)
				if fresh.Stats != reused.Stats {
					t.Fatalf("%s n=%d shards=%d: stats differ:\nfresh: %+v\nreuse: %+v", c.name, n, shards, fresh.Stats, reused.Stats)
				}
				for v := range fresh.Outputs {
					if fresh.Outputs[v] != reused.Outputs[v] {
						t.Fatalf("%s n=%d shards=%d node %d:\nfresh: %s\nreuse: %s", c.name, n, shards, v, fresh.Outputs[v], reused.Outputs[v])
					}
				}
				if fresh.Stats.Messages == 0 && c.name != "min-id-leader" {
					t.Fatalf("%s n=%d: no traffic, the chain tested nothing", c.name, n)
				}
			}
		}
	}
}
