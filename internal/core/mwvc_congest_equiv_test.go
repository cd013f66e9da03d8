package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// blockingMWVCCongest is the original blocking handler implementation
// of Theorem 7, kept verbatim as a reference: the step-program rewrite must
// be message-for-message indistinguishable from it, which
// TestStepMWVCMatchesBlockingReference checks via full output and statistics
// equality, on the sequential and the sharded sweep.
func blockingMWVCCongest(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	n := g.N()
	idw := congest.IDBits(n)
	maxWBits := 3*idw - 1
	if maxWBits < 1 {
		maxWBits = 1
	}
	solver := opts.localSolver()
	ratio := eps / (1 + eps)
	minRemoval := int(1 + 1/eps)
	if minRemoval < 1 {
		minRemoval = 1
	}
	iterations := n/minRemoval + 1

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CONGEST,
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		inR := nd.Weight() > 0 // zero-weight vertices start in the cover
		inS := !inR

		// Round 0: learn neighbor weights (w is already bounded to fit).
		nd.Broadcast(congest.NewIntWidth(nd.Weight(), maxWBits))
		nd.NextRound()
		nbrWeight := make(map[int]int64, nd.Degree())
		for _, in := range nd.Recv() {
			nbrWeight[in.From] = in.Msg.(congest.Int).V
		}
		// Fixed class structure over the full neighborhood N(c).
		wMin := int64(0)
		for _, w := range nbrWeight {
			if w > 0 && (wMin == 0 || w < wMin) {
				wMin = w
			}
		}
		classOf := func(u int) int {
			w := nbrWeight[u]
			if w <= 0 || wMin == 0 {
				return -1 // zero-weight: pre-covered, never in a class
			}
			c := 0
			for t := wMin; t*2 <= w; t *= 2 {
				c++
			}
			return c
		}

		inRNbr := make(map[int]bool, nd.Degree())
		for _, u := range nd.Neighbors() {
			inRNbr[u] = nbrWeight[u] > 0
		}

		// ripeMembers returns the union of N_i(c) ∩ R over all ripe classes
		// i (condition (7): w*_i ≤ W_i · ε/(1+ε)).
		ripeMembers := func() []int {
			type agg struct {
				sum, max int64
				members  []int
			}
			classes := map[int]*agg{}
			for _, u := range nd.Neighbors() {
				if !inRNbr[u] {
					continue
				}
				ci := classOf(u)
				if ci < 0 {
					continue
				}
				a := classes[ci]
				if a == nil {
					a = &agg{}
					classes[ci] = a
				}
				w := nbrWeight[u]
				a.sum += w
				if w > a.max {
					a.max = w
				}
				a.members = append(a.members, u)
			}
			var out []int
			for _, a := range classes {
				if float64(a.max) <= float64(a.sum)*ratio+1e-12 {
					out = append(out, a.members...)
				}
			}
			return out
		}

		// Phase I.
		for it := 0; it < iterations; it++ {
			nd.Broadcast(congest.NewIntWidth(boolBit(inR), 1))
			nd.NextRound()
			for _, in := range nd.Recv() {
				inRNbr[in.From] = in.Msg.(congest.Int).V == 1
			}
			ripe := ripeMembers()
			val := int64(0)
			if len(ripe) > 0 {
				val = int64(nd.ID()) + 1
			}
			maxVal := primitives.TwoHopMax(nd, val)
			selected := len(ripe) > 0 && maxVal == int64(nd.ID())+1
			if selected {
				for _, u := range ripe {
					nd.MustSend(u, congest.Flag{})
				}
			}
			nd.NextRound()
			if len(nd.Recv()) > 0 {
				inS = true
				inR = false
			}
		}

		// Final status round: learn which neighbors are in U = R.
		nd.Broadcast(congest.NewIntWidth(boolBit(inR), 1))
		nd.NextRound()
		uNbrs := make([]int, 0, nd.Degree())
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				uNbrs = append(uNbrs, in.From)
			}
		}

		// Phase II: gather F plus the weights of U-vertices, solve at the
		// leader, flood the solution.
		leader := primitives.MinIDLeader(nd)
		tree := primitives.BFSTree(nd, leader)
		items := make([]congest.Message, 0, len(uNbrs)+1)
		for _, u := range uNbrs {
			items = append(items, edgeOrWeight{A: int64(nd.ID()), B: int64(u), WA: idw, WB: idw})
		}
		if inR {
			items = append(items, edgeOrWeight{IsWeight: true, A: int64(nd.ID()), B: nd.Weight(), WA: idw, WB: maxWBits})
		}
		gathered := primitives.GatherAtRoot(nd, tree, items)

		var solutionIDs []congest.Message
		if nd.ID() == leader {
			cover := leaderSolveWeightedRemainder(n, gathered, solver)
			for _, v := range cover.Elements() {
				solutionIDs = append(solutionIDs, congest.NewIntWidth(int64(v), idw))
			}
		}
		all := primitives.FloodItemsFromRoot(nd, tree, solutionIDs)
		inRStar := false
		for _, m := range all {
			if m.(congest.Int).V == int64(nd.ID()) {
				inRStar = true
			}
		}
		return nodeOut{InSolution: inS || inRStar, InPhaseI: inS}, nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(res.Outputs, res.Stats), nil
}

// weighted overlays deterministic pseudo-random weights in [1, maxW] so the
// class machinery is exercised beyond the all-ones case.
func weighted(g *graph.Graph, maxW int64, seed int64) *graph.Graph {
	return graph.WithRandomWeights(g, maxW, rand.New(rand.NewSource(seed)))
}

func TestStepMWVCMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// A path with zero-weight interior vertices exercises the pre-covered
	// fast path of Section 3.2.
	zb := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		zb.AddEdge(i, i+1)
	}
	zb.SetWeight(1, 0)
	zb.SetWeight(4, 0)
	graphs := map[string]*graph.Graph{
		"zeroes":   zb.Build(),
		"single":   graph.NewBuilder(1).Build(),
		"edge":     graph.Path(2),
		"path9w":   weighted(graph.Path(9), 12, 1),
		"star12w":  weighted(graph.Star(12), 30, 2),
		"cycle11":  graph.Cycle(11),
		"grid4x5w": weighted(graph.Grid(4, 5), 9, 3),
		"gnp30w":   weighted(graph.ConnectedGNP(30, 0.12, rng), 25, 4),
		"tree35w":  weighted(graph.RandomTree(35, rng), 7, 5),
	}
	for name, g := range graphs {
		for _, eps := range []float64{1, 0.5, 0.25} {
			for _, shards := range []int{0, 3} {
				opts := &Options{Seed: 7, Shards: shards}
				want, err := blockingMWVCCongest(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: reference: %v", name, eps, shards, err)
				}
				got, err := ApproxMWVCCongest(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: step: %v", name, eps, shards, err)
				}
				if !got.Solution.Equal(want.Solution) {
					t.Fatalf("%s eps=%v shards=%d: solutions differ:\nstep:     %v\nblocking: %v",
						name, eps, shards, got.Solution.Elements(), want.Solution.Elements())
				}
				if got.PhaseISize != want.PhaseISize {
					t.Fatalf("%s eps=%v shards=%d: PhaseISize %d vs %d", name, eps, shards, got.PhaseISize, want.PhaseISize)
				}
				if got.Stats != want.Stats {
					t.Fatalf("%s eps=%v shards=%d: stats differ:\nstep:     %+v\nblocking: %+v",
						name, eps, shards, got.Stats, want.Stats)
				}
			}
		}
	}
}
