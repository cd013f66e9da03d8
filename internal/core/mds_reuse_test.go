package core

import (
	"math/rand"
	"slices"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// candNbrsProbe wraps one node's mdsCongestProgram and checks, after every
// step of the vote floods, that the candidate neighbors the floods relay to
// are exactly this phase's neighboring candidates. The program reuses one
// StepRankFlood for all rpow rank floods of a phase, and the floods after
// the first overwrite its senders buffer, so a candNbrs that aliased that
// buffer would change under the vote floods.
type candNbrsProbe struct {
	*mdsCongestProgram
	t     *testing.T
	progs []*mdsCongestProgram
	votes int // vote-flood steps checked
}

func (p *candNbrsProbe) Step(nd *congest.Node) (bool, error) {
	done, err := p.mdsCongestProgram.Step(nd)
	if p.sub == mdsVotes {
		var want []int
		for _, u := range nd.Neighbors() {
			if p.progs[u].candidate {
				want = append(want, u)
			}
		}
		if !slices.Equal(p.candNbrs, want) {
			p.t.Errorf("rpow=%d node %d phase %d: vote floods relay to %v, neighboring candidates are %v",
				p.rpow, nd.ID(), p.phase, p.candNbrs, want)
		}
		p.votes++
	}
	return done, err
}

func TestMDSReusedRankFloodKeepsCandNbrs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3; trial++ {
		g := graph.ConnectedGNP(24, 0.15, rng)
		for _, rpow := range []int{1, 2, 3} {
			opts := &MDSOptions{Options: Options{Seed: int64(trial), Power: rpow}, SampleFactor: 1, PhaseFactor: 1}
			params, bwf, err := deriveMDSParams(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			progs := make([]*mdsCongestProgram, g.N())
			probes := make([]*candNbrsProbe, g.N())
			// Sequential sweep only: the probes read other nodes' programs.
			cfg := congest.Config{Graph: g, Model: congest.CONGEST, BandwidthFactor: bwf, Seed: opts.Seed}
			res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
				prog := &mdsCongestProgram{mdsParams: *params}
				prog.startPhase(nd)
				progs[nd.ID()] = prog
				probes[nd.ID()] = &candNbrsProbe{mdsCongestProgram: prog, t: t, progs: progs}
				return probes[nd.ID()]
			})
			if err != nil {
				t.Fatalf("rpow=%d: %v", rpow, err)
			}
			if probes[0].votes == 0 {
				t.Fatalf("rpow=%d: no vote-flood step was checked", rpow)
			}
			want, err := ApproxMDSCongest(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := assemble(res.Outputs, res.Stats); !got.Solution.Equal(want.Solution) || got.Stats != want.Stats {
				t.Fatalf("rpow=%d: probed run diverges from ApproxMDSCongest", rpow)
			}
		}
	}
}
