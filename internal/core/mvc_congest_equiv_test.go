package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// blockingMVCCongest is the original blocking handler implementation
// of Algorithm 1, kept verbatim as a reference: the step-program rewrite
// must be message-for-message indistinguishable from it, which
// TestStepMVCMatchesBlockingReference checks via full output and statistics
// equality, on the sequential and the sharded sweep.
func blockingMVCCongest(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	l, err := epsilonToL(eps)
	if err != nil {
		return nil, err
	}
	n := g.N()
	solver := opts.localSolver()
	iterations := n/(l+1) + 1

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CONGEST,
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		inR, inC := true, true
		inS := false
		idw := congest.IDBits(n)

		// Phase I.
		for it := 0; it < iterations; it++ {
			nd.Broadcast(congest.NewIntWidth(boolBit(inR), 1))
			nd.NextRound()
			dR := 0
			for _, in := range nd.Recv() {
				if in.Msg.(congest.Int).V == 1 {
					dR++
				}
			}
			candidate := inC && dR > l
			val := int64(0)
			if candidate {
				val = int64(nd.ID()) + 1
			}
			maxVal := primitives.TwoHopMax(nd, val)
			selected := candidate && maxVal == int64(nd.ID())+1
			if selected {
				nd.Broadcast(congest.Flag{})
				inC = false
			}
			nd.NextRound()
			for range nd.Recv() {
				inS = true
				inR = false
				break
			}
		}

		nd.Broadcast(congest.NewIntWidth(boolBit(inR), 1))
		nd.NextRound()
		uNbrs := make([]int, 0, nd.Degree())
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				uNbrs = append(uNbrs, in.From)
			}
		}

		// Phase II.
		leader := primitives.MinIDLeader(nd)
		tree := primitives.BFSTree(nd, leader)
		items := make([]congest.Message, 0, len(uNbrs))
		for _, u := range uNbrs {
			items = append(items, congest.NewPair(n, int64(nd.ID()), int64(u)))
		}
		gathered := primitives.GatherAtRoot(nd, tree, items)

		var solutionIDs []congest.Message
		if nd.ID() == leader {
			cover := leaderSolveRemainder(n, gathered, solver)
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

func TestStepMVCMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := map[string]*graph.Graph{
		"single":  graph.NewBuilder(1).Build(),
		"edge":    graph.Path(2),
		"path9":   graph.Path(9),
		"star12":  graph.Star(12),
		"cycle11": graph.Cycle(11),
		"grid4x5": graph.Grid(4, 5),
		"cat5x4":  graph.Caterpillar(5, 4),
		"gnp30":   graph.ConnectedGNP(30, 0.12, rng),
		"gnp45":   graph.ConnectedGNP(45, 0.08, rng),
		"tree40":  graph.RandomTree(40, rng),
	}
	for name, g := range graphs {
		for _, eps := range []float64{1, 0.5, 0.25} {
			for _, shards := range []int{0, 3} {
				opts := &Options{Seed: 7, Shards: shards}
				want, err := blockingMVCCongest(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: reference: %v", name, eps, shards, err)
				}
				got, err := ApproxMVCCongest(g, eps, opts)
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
