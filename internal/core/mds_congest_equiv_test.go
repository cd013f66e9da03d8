package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/estimate"
	"powergraph/internal/graph"
)

// The blocking Theorem 28 reference sends the same flat congest.Message
// kinds and widths as the step program — KindInt samples, KindRankID
// (rank, id) pairs and KindCandMin (candidate, sample) pairs — so the two
// are bit-for-bit indistinguishable.

// blockingMDSCongest is the original blocking handler implementation
// of Theorem 28, kept verbatim as a reference for
// TestStepMDSMatchesBlockingReference.
func blockingMDSCongest(g *graph.Graph, opts *MDSOptions) (*Result, error) {
	if opts == nil {
		opts = &MDSOptions{}
	}
	p, bwf, err := deriveMDSParams(g, opts)
	if err != nil {
		return nil, err
	}
	n, r, phases := p.n, p.r, p.phases
	idw, fracBits, qWidth, rankW := p.idw, p.fracBits, p.qWidth, p.rankW
	rankMax := p.rankMax

	cfg := congest.Config{
		Graph:           g,
		Model:           congest.CONGEST,
		BandwidthFactor: bwf,
		MaxRounds:       opts.Options.MaxRounds,
		Seed:            opts.Options.Seed,
		CutA:            opts.Options.CutA,
	}
	res, err := congest.Run(cfg, func(nd *congest.Node) (nodeOut, error) {
		covered := false
		inDS := false
		rng := nd.Rand()

		for phase := 0; phase < phases; phase++ {
			// Step 1: estimate C_v = |uncovered ∩ ball₂(v)| via r
			// two-round min-floods of quantized Exp(1) samples.
			minima := make([]float64, 0, r)
			sawAny := true
			for j := 0; j < r; j++ {
				var own int64 = -1 // -1 = no sample to contribute
				if !covered {
					own = estimate.Quantize(estimate.Sample(rng), fracBits)
				}
				m1 := minFlood(nd, own, qWidth)
				m2 := minFlood(nd, m1, qWidth)
				if m2 < 0 {
					sawAny = false
					continue
				}
				minima = append(minima, estimate.Dequantize(m2, fracBits))
			}
			var dTilde float64
			var rho int64
			if sawAny && len(minima) == r {
				dTilde = estimate.FromMinima(minima)
				if dTilde > float64(n) {
					dTilde = float64(n) // clamp: can never cover more than n
				}
				rho = estimate.RoundUpPow2(dTilde)
			}

			// Step 2: candidates are 4-hop (G-distance) maxima of ρ̃.
			maxRho := rho
			for hop := 0; hop < 4; hop++ {
				nd.BroadcastNeighbors(congest.NewIntWidth(maxRho, idw+2))
				nd.NextRound()
				for _, in := range nd.Recv() {
					if v := in.Msg.Int(); v > maxRho {
						maxRho = v
					}
				}
			}
			candidate := rho > 0 && rho >= maxRho

			// Step 3: candidates draw ranks; uncovered vertices vote for
			// the minimal (rank, id) candidate within two hops.
			var myRank int64 = -1
			if candidate {
				myRank = rng.Int63n(rankMax)
			}
			r1, id1, fromNbr := rankFlood(nd, myRank, int64(nd.ID()), rankW, idw)
			_, id2, _ := rankFlood(nd, r1, id1, rankW, idw)
			candNbrs := fromNbr // which G-neighbors are candidates (direct senders in flood 1)
			voteFor := -1
			if !covered && id2 >= 0 {
				voteFor = int(id2)
			}

			// Step 4: estimate per-candidate vote counts with r repetitions
			// of a two-round per-candidate min-flood.
			voteMinima := make([]float64, 0, r)
			gotVotes := true
			for j := 0; j < r; j++ {
				var own int64 = -1
				if voteFor != -1 {
					own = estimate.Quantize(estimate.Sample(rng), fracBits)
				}
				// Round A: voters broadcast (candidate, sample).
				if own >= 0 {
					nd.BroadcastNeighbors(congest.NewMessage(congest.KindCandMin, int64(voteFor), own, idw, qWidth))
				}
				nd.NextRound()
				perCand := map[int64]int64{}
				if own >= 0 {
					perCand[int64(voteFor)] = own
				}
				for _, in := range nd.Recv() {
					if in.Msg.Kind() != congest.KindCandMin {
						continue
					}
					c, q := in.Msg.A(), in.Msg.B()
					if cur, seen := perCand[c]; !seen || q < cur {
						perCand[c] = q
					}
				}
				// Round B: forward each neighboring candidate its minimum.
				for _, u := range nd.Neighbors() {
					if !candNbrs[u] {
						continue
					}
					if q, ok := perCand[int64(u)]; ok {
						nd.MustSend(u, congest.NewMessage(congest.KindCandMin, int64(u), q, idw, qWidth))
					}
				}
				nd.NextRound()
				best := int64(-1)
				if candidate {
					if q, ok := perCand[int64(nd.ID())]; ok {
						best = q
					}
					for _, in := range nd.Recv() {
						if in.Msg.Kind() != congest.KindCandMin || in.Msg.A() != int64(nd.ID()) {
							continue
						}
						if q := in.Msg.B(); best < 0 || q < best {
							best = q
						}
					}
				}
				if best < 0 {
					gotVotes = false
					continue
				}
				voteMinima = append(voteMinima, estimate.Dequantize(best, fracBits))
			}

			// Step 5: join on votes ≥ C̃_v/8.
			joined := false
			if candidate && gotVotes && len(voteMinima) == r {
				votes := estimate.FromMinima(voteMinima)
				if votes > float64(n) {
					votes = float64(n)
				}
				if votes >= dTilde/8 {
					inDS = true
					joined = true
					covered = true
				}
			}

			// Step 6: two-round coverage flood from new members.
			if joined {
				nd.BroadcastNeighbors(congest.Flag())
			}
			nd.NextRound()
			relay := joined || len(nd.Recv()) > 0
			if len(nd.Recv()) > 0 {
				covered = true
			}
			if relay {
				nd.BroadcastNeighbors(congest.Flag())
			}
			nd.NextRound()
			if len(nd.Recv()) > 0 {
				covered = true
			}
		}

		// Unconditional feasibility: leftover uncovered vertices join.
		fallback := false
		if !covered {
			inDS = true
			fallback = true
		}
		return nodeOut{InSolution: inDS, InPhaseI: fallback}, nil
	})
	if err != nil {
		return nil, err
	}
	out := assemble(res.Outputs, res.Stats)
	out.FallbackJoins = out.PhaseISize
	out.PhaseISize = -1
	return out, nil
}

// minFlood performs one round of minimum aggregation: nodes with own ≥ 0
// send it to all G-neighbors; everyone returns the minimum of its own value
// and everything received (-1 if nothing was seen).
func minFlood(nd *congest.Node, own int64, width int) int64 {
	if own >= 0 {
		nd.BroadcastNeighbors(congest.NewIntWidth(own, width))
	}
	nd.NextRound()
	best := own
	for _, in := range nd.Recv() {
		if in.Msg.Kind() != congest.KindInt {
			continue
		}
		if q := in.Msg.Int(); best < 0 || q < best {
			best = q
		}
	}
	return best
}

// rankFlood performs one round of lexicographic (rank, id) minimum
// aggregation; rank < 0 means "no value". It also reports which neighbors
// sent a value this round (used to detect neighboring candidates in the
// first hop of the flood).
func rankFlood(nd *congest.Node, rank, id int64, rankW, idW int) (int64, int64, map[int]bool) {
	if rank >= 0 {
		nd.BroadcastNeighbors(congest.NewMessage(congest.KindRankID, rank, id, rankW, idW))
	}
	nd.NextRound()
	bestR, bestID := rank, id
	senders := make(map[int]bool)
	for _, in := range nd.Recv() {
		if in.Msg.Kind() != congest.KindRankID {
			continue
		}
		senders[in.From] = true
		if r, i := in.Msg.A(), in.Msg.B(); bestR < 0 || r < bestR || (r == bestR && i < bestID) {
			bestR, bestID = r, i
		}
	}
	if bestR < 0 {
		bestID = -1
	}
	return bestR, bestID, senders
}

func TestStepMDSMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	graphs := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path7":  graph.Path(7),
		"star9":  graph.Star(9),
		"grid34": graph.Grid(3, 4),
		"gnp16":  graph.ConnectedGNP(16, 0.25, rng),
		"tree14": graph.RandomTree(14, rng),
	}
	for name, g := range graphs {
		for _, shards := range []int{0, 3} {
			opts := &MDSOptions{Options: Options{Seed: 7, Shards: shards}, SampleFactor: 1, PhaseFactor: 1}
			want, err := blockingMDSCongest(g, opts)
			if err != nil {
				t.Fatalf("%s shards=%d: reference: %v", name, shards, err)
			}
			got, err := ApproxMDSCongest(g, opts)
			if err != nil {
				t.Fatalf("%s shards=%d: step: %v", name, shards, err)
			}
			if !got.Solution.Equal(want.Solution) {
				t.Fatalf("%s shards=%d: solutions differ:\nstep:     %v\nblocking: %v",
					name, shards, got.Solution.Elements(), want.Solution.Elements())
			}
			if got.FallbackJoins != want.FallbackJoins {
				t.Fatalf("%s shards=%d: FallbackJoins %d vs %d", name, shards, got.FallbackJoins, want.FallbackJoins)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s shards=%d: stats differ:\nstep:     %+v\nblocking: %+v",
					name, shards, got.Stats, want.Stats)
			}
		}
	}
	// Default estimator parameters on one small instance, sequential and sharded.
	g := graph.ConnectedGNP(10, 0.3, rng)
	for _, shards := range []int{0, 3} {
		opts := &MDSOptions{Options: Options{Seed: 3, Shards: shards}}
		want, err := blockingMDSCongest(g, opts)
		if err != nil {
			t.Fatalf("defaults shards=%d: reference: %v", shards, err)
		}
		got, err := ApproxMDSCongest(g, opts)
		if err != nil {
			t.Fatalf("defaults shards=%d: step: %v", shards, err)
		}
		if !got.Solution.Equal(want.Solution) || got.Stats != want.Stats {
			t.Fatalf("defaults shards=%d: step and blocking diverge", shards)
		}
	}
}
