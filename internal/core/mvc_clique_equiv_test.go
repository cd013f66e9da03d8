package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// blockingMVCCliqueDeterministic is the original blocking handler
// implementation of Corollary 10, kept verbatim as a reference for
// TestStepCliqueDetMatchesBlockingReference.
func blockingMVCCliqueDeterministic(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	l, err := epsilonToL(eps)
	if err != nil {
		return nil, err
	}
	n := g.N()
	solver := opts.localSolver()
	iterations := n/(l+1) + 1

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CongestedClique,
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		inR, inC, inS := true, true, false

		// Phase I (identical to Algorithm 1's, over G-edges), with an
		// early-exit check per iteration: the clique's all-to-all round
		// computes the global "any candidate left?" OR for one extra round
		// per iteration, so quiet instances stop in O(1) iterations.
		for it := 0; it < iterations; it++ {
			nd.BroadcastNeighbors(congest.NewIntWidth(boolBit(inR), 1))
			nd.NextRound()
			dR := 0
			for _, in := range nd.Recv() {
				if in.Msg.Int() == 1 {
					dR++
				}
			}
			candidate := inC && dR > l
			// Global OR via the clique.
			nd.Broadcast(congest.NewIntWidth(boolBit(candidate), 1))
			nd.NextRound()
			any := candidate
			for _, in := range nd.Recv() {
				if in.Msg.Int() == 1 {
					any = true
				}
			}
			if !any {
				break
			}
			val := int64(0)
			if candidate {
				val = int64(nd.ID()) + 1
			}
			maxVal := primitives.TwoHopMax(nd, val)
			selected := candidate && maxVal == int64(nd.ID())+1
			if selected {
				nd.BroadcastNeighbors(congest.Flag())
				inC = false
			}
			nd.NextRound()
			if len(nd.Recv()) > 0 {
				inS = true
				inR = false
			}
		}

		sol := cliquePhaseII(nd, inR, l, solver)
		return nodeOut{InSolution: inS || sol, InPhaseI: inS}, nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(res.Outputs, res.Stats), nil
}

// cliquePhaseII is the blocking form of the shared CONGESTED CLIQUE Phase II
// (Lemma 9), kept verbatim as the reference for cliqueStepPhaseII: a
// one-round leader election, a final U-status exchange, maxItems parallel
// rounds of direct F-edge shipping to the leader, a local solve, and a
// one-round answer. It returns whether this node is in the leader's cover.
// maxItems must upper-bound every node's F-edge count.
func cliquePhaseII(nd *congest.Node, inR bool, maxItems int, solver LocalSolver) bool {
	n := nd.N()
	// Leader election: everyone flags everyone; min id wins (always 0, but
	// paid for honestly with one clique round).
	nd.Broadcast(congest.Flag())
	nd.NextRound()
	leader := nd.ID()
	for _, in := range nd.Recv() {
		if in.From < leader {
			leader = in.From
		}
	}
	// U-status exchange over G-edges.
	nd.BroadcastNeighbors(congest.NewIntWidth(boolBit(inR), 1))
	nd.NextRound()
	var items []congest.Message
	for _, in := range nd.Recv() {
		if in.Msg.Int() == 1 {
			items = append(items, congest.NewPair(n, int64(nd.ID()), int64(in.From)))
		}
	}
	if len(items) > maxItems {
		// Protocol invariant broken: Phase I should have bounded U-degrees.
		panic("core: clique Phase II item bound violated")
	}
	// Parallel direct shipping: round j sends each node's j-th item.
	var gathered []congest.Message
	for j := 0; j < maxItems; j++ {
		if j < len(items) && nd.ID() != leader {
			nd.MustSend(leader, items[j])
		}
		nd.NextRound()
		if nd.ID() == leader {
			for _, in := range nd.Recv() {
				gathered = append(gathered, in.Msg)
			}
		}
	}
	// Leader solves locally and answers every cover member in one round.
	inCover := false
	if nd.ID() == leader {
		gathered = append(gathered, items...)
		cover := leaderSolveRemainder(n, gathered, solver)
		inCover = cover.Contains(nd.ID())
		cover.ForEach(func(v int) bool {
			if v != nd.ID() {
				nd.MustSend(v, congest.Flag())
			}
			return true
		})
	}
	nd.NextRound()
	if len(nd.Recv()) > 0 {
		inCover = true
	}
	return inCover
}

func TestStepCliqueDetMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	graphs := map[string]*graph.Graph{
		"single":  graph.NewBuilder(1).Build(),
		"edge":    graph.Path(2),
		"path9":   graph.Path(9),
		"star12":  graph.Star(12),
		"cycle11": graph.Cycle(11),
		"grid4x5": graph.Grid(4, 5),
		"gnp30":   graph.ConnectedGNP(30, 0.12, rng),
		"tree35":  graph.RandomTree(35, rng),
	}
	for name, g := range graphs {
		for _, eps := range []float64{1, 0.5, 0.25} {
			for _, shards := range []int{0, 3} {
				opts := &Options{Seed: 7, Shards: shards}
				want, err := blockingMVCCliqueDeterministic(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: reference: %v", name, eps, shards, err)
				}
				got, err := ApproxMVCCliqueDeterministic(g, eps, opts)
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
