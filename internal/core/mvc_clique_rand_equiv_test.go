package core

import (
	"math"
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// blockingMVCCliqueRandomized is the original blocking handler
// implementation of Theorem 11, kept verbatim as a reference for
// TestStepCliqueRandMatchesBlockingReference.
func blockingMVCCliqueRandomized(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	n := g.N()
	solver := opts.localSolver()
	tau := int(math.Ceil(8/eps)) + 2
	randomIters := 8*congest.IDBits(n) + 16
	rankW := 4 * congest.IDBits(n)
	rankMax := int64(1) << uint(rankW)

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CongestedClique,
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		inR, inS := true, false
		succeeded := false
		idw := congest.IDBits(n)

		for it := 0; ; it++ {
			// Round 1: live-status exchange over G-edges.
			nd.BroadcastNeighbors(congest.NewIntWidth(boolBit(inR), 1))
			nd.NextRound()
			live := make([]int, 0, nd.Degree())
			for _, in := range nd.Recv() {
				if in.Msg.(congest.Int).V == 1 {
					live = append(live, in.From)
				}
			}
			dR := len(live)
			candidate := !succeeded && dR > tau

			// Round 2: global termination OR via the clique.
			nd.Broadcast(congest.NewIntWidth(boolBit(candidate), 1))
			nd.NextRound()
			any := candidate
			for _, in := range nd.Recv() {
				if in.Msg.(congest.Int).V == 1 {
					any = true
				}
			}
			if !any {
				break
			}

			// Round 3: candidates announce ranks to their G-neighbors.
			// After the w.h.p. horizon, ranks deterministically become the
			// candidate's id, forcing the global maximum to succeed.
			var myRank int64
			if candidate {
				if it < randomIters {
					myRank = nd.Rand().Int63n(rankMax)
				} else {
					myRank = int64(nd.ID())
				}
				nd.BroadcastNeighbors(rankMsg{Rank: myRank, Width: rankW})
			}
			nd.NextRound()
			voteFor := -1
			var bestRank int64 = -1
			if inR {
				for _, in := range nd.Recv() {
					m, ok := in.Msg.(rankMsg)
					if !ok {
						continue
					}
					// Highest rank wins; ties break toward the higher id
					// (deterministic, consistent at every voter).
					if m.Rank > bestRank || (m.Rank == bestRank && in.From > voteFor) {
						bestRank = m.Rank
						voteFor = in.From
					}
				}
			}

			// Round 4: voters announce their chosen candidate to all
			// G-neighbors; candidates count votes naming them.
			if voteFor != -1 {
				nd.BroadcastNeighbors(congest.NewIntWidth(int64(voteFor), idw))
			}
			nd.NextRound()
			votes := 0
			for _, in := range nd.Recv() {
				if m, ok := in.Msg.(congest.Int); ok && int(m.V) == nd.ID() {
					votes++
				}
			}
			success := candidate && votes*8 >= dR

			// Round 5: successful candidates move N(c) into S.
			if success {
				nd.BroadcastNeighbors(congest.Flag{})
				succeeded = true
			}
			nd.NextRound()
			if len(nd.Recv()) > 0 {
				inS = true
				inR = false
			}
		}

		sol := cliquePhaseII(nd, inR, tau, solver)
		return nodeOut{InSolution: inS || sol, InPhaseI: inS}, nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(res.Outputs, res.Stats), nil
}

func TestStepCliqueRandMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"single":  graph.NewBuilder(1).Build(),
		"edge":    graph.Path(2),
		"path9":   graph.Path(9),
		"star16":  graph.Star(16),
		"cycle11": graph.Cycle(11),
		"grid4x5": graph.Grid(4, 5),
		"gnp30":   graph.ConnectedGNP(30, 0.2, rng),
		"tree35":  graph.RandomTree(35, rng),
	}
	for name, g := range graphs {
		for _, eps := range []float64{1, 0.5, 0.25} {
			for _, shards := range []int{0, 3} {
				opts := &Options{Seed: 7, Shards: shards}
				want, err := blockingMVCCliqueRandomized(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: reference: %v", name, eps, shards, err)
				}
				got, err := ApproxMVCCliqueRandomized(g, eps, opts)
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
