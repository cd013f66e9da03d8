package core

import (
	"math"
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// rankMsg announces a candidate's random rank (drawn from [n⁴], exactly the
// 4·⌈log₂ n⌉ bits the paper's voting scheme budgets for). It is the message
// type of the blocking references; the step programs send congest.Int values
// of identical width, so the two are bit-for-bit indistinguishable.
type rankMsg struct {
	Rank  int64
	Width int
}

func (m rankMsg) Bits() int { return m.Width }

// blockingMVCCongestRandomized is the original blocking handler
// implementation of Section 3.3, kept verbatim as a reference for
// TestStepMVCRandMatchesBlockingReference.
func blockingMVCCongestRandomized(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	n := g.N()
	solver := opts.localSolver()
	tau := int(math.Ceil(8/eps)) + 2
	randomIters := 8*congest.IDBits(n) + 16
	fallbackIters := n/(tau+1) + 1
	totalIters := randomIters + fallbackIters
	rankW := 4 * congest.IDBits(n)
	rankMax := int64(1) << uint(rankW)

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CONGEST,
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		inR, inS := true, false
		succeeded := false
		idw := congest.IDBits(n)

		for it := 0; it < totalIters; it++ {
			// Round 1: live-status exchange.
			nd.BroadcastNeighbors(congest.NewIntWidth(boolBit(inR), 1))
			nd.NextRound()
			dR := 0
			for _, in := range nd.Recv() {
				if in.Msg.(congest.Int).V == 1 {
					dR++
				}
			}
			candidate := !succeeded && dR > tau

			// Round 2: candidate ranks.
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
					if m.Rank > bestRank || (m.Rank == bestRank && in.From > voteFor) {
						bestRank = m.Rank
						voteFor = in.From
					}
				}
			}

			// Round 3: votes.
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

			// Round 4: successful candidates retire their neighborhoods.
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

		// Standard CONGEST Phase II (as in Algorithm 1): every node now has
		// at most τ live neighbors.
		nd.Broadcast(congest.NewIntWidth(boolBit(inR), 1))
		nd.NextRound()
		uNbrs := make([]int, 0, nd.Degree())
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				uNbrs = append(uNbrs, in.From)
			}
		}
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

func TestStepMVCRandMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
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
				want, err := blockingMVCCongestRandomized(g, eps, opts)
				if err != nil {
					t.Fatalf("%s eps=%v shards=%d: reference: %v", name, eps, shards, err)
				}
				got, err := ApproxMVCCongestRandomized(g, eps, opts)
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
