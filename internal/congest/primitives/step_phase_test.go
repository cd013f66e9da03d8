package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// cliqueOut is the observable outcome of the clique-collective chain.
type cliqueOut struct {
	Hop2      int64
	Leader    int
	On        string
	Collected string
}

// blockingCliqueChain chains the blocking counterparts of the clique-model
// step primitives: a 2-hop max, a one-round clique leader election, a
// status exchange, and Lemma 9's direct gather at the leader.
func blockingCliqueChain(nd *congest.Node) (cliqueOut, error) {
	out := cliqueOut{Hop2: TwoHopMax(nd, int64(nd.ID()*7%13))}

	nd.Broadcast(congest.Flag())
	nd.NextRound()
	leader := nd.ID()
	for _, in := range nd.Recv() {
		if in.From < leader {
			leader = in.From
		}
	}
	out.Leader = leader

	status := nd.ID()%3 == 0
	bit := int64(0)
	if status {
		bit = 1
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(bit, 1))
	nd.NextRound()
	var on []int
	for _, in := range nd.Recv() {
		if in.Msg.Int() == 1 {
			on = append(on, in.From)
		}
	}
	out.On = fmt.Sprint(on)

	items := []congest.Message{congest.NewInt(int64(nd.ID()))}
	if nd.ID()%2 == 0 {
		items = append(items, congest.NewInt(int64(nd.ID()+100)))
	}
	const maxItems = 2
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
	if nd.ID() == leader {
		gathered = append(gathered, items...)
	}
	out.Collected = fmt.Sprint(gathered)
	return out, nil
}

// stepCliqueChain is the same chain assembled from the step-form twins.
type stepCliqueChain struct {
	stage  int
	hop    *StepHopMax
	leader *StepCliqueLeader
	status *StepStatusExchange
	gather *StepDirectGather
	out    cliqueOut
}

func (p *stepCliqueChain) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if p.hop == nil {
				p.hop = NewStepRHopMax(int64(nd.ID()*7%13), 2)
			}
			if !p.hop.Step(nd) {
				return false, nil
			}
			p.out.Hop2 = p.hop.Max()
			p.leader = NewStepCliqueLeader(nd)
			p.stage = 1
		case 1:
			if !p.leader.Step(nd) {
				return false, nil
			}
			p.out.Leader = p.leader.Leader()
			p.status = NewStepStatusExchange(nd.ID()%3 == 0)
			p.stage = 2
		case 2:
			if !p.status.Step(nd) {
				return false, nil
			}
			p.out.On = fmt.Sprint(p.status.On())
			items := []congest.Message{congest.NewInt(int64(nd.ID()))}
			if nd.ID()%2 == 0 {
				items = append(items, congest.NewInt(int64(nd.ID()+100)))
			}
			p.gather = NewStepDirectGather(p.out.Leader, items, 2)
			p.stage = 3
		default:
			if !p.gather.Step(nd) {
				return false, nil
			}
			p.out.Collected = fmt.Sprint(p.gather.Collected())
			return true, nil
		}
	}
}

func (p *stepCliqueChain) Output() cliqueOut { return p.out }

// TestStepCliquePrimitivesMatchBlocking proves the clique-model step
// primitives (StepTwoHopMax, StepCliqueLeader, StepStatusExchange,
// StepDirectGather) message-for-message equivalent to their blocking
// counterparts: identical outputs and simulator statistics, sequential and
// sharded.
func TestStepCliquePrimitivesMatchBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path8":  graph.Path(8),
		"star10": graph.Star(10),
		"gnp20":  graph.ConnectedGNP(20, 0.2, rng),
	}
	for name, g := range graphs {
		var results []*congest.Result[cliqueOut]
		for _, shards := range []int{0, 3} {
			cfg := congest.Config{Graph: g, Model: congest.CongestedClique, Seed: 6, Shards: shards}
			blk, err := congest.Run(cfg, blockingCliqueChain)
			if err != nil {
				t.Fatalf("%s shards=%d blocking: %v", name, shards, err)
			}
			stp, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[cliqueOut] {
				return &stepCliqueChain{}
			})
			if err != nil {
				t.Fatalf("%s shards=%d step: %v", name, shards, err)
			}
			results = append(results, blk, stp)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0].Outputs, results[i].Outputs) {
				t.Fatalf("%s: variant %d outputs differ:\n%v\n%v",
					name, i, results[0].Outputs, results[i].Outputs)
			}
			if results[0].Stats != results[i].Stats {
				t.Fatalf("%s: variant %d stats differ:\n%+v\n%+v",
					name, i, results[0].Stats, results[i].Stats)
			}
		}
		for v, out := range results[0].Outputs {
			if out.Leader != 0 {
				t.Fatalf("%s: node %d elected %d", name, v, out.Leader)
			}
		}
	}
}

// TestStepEstimatorFloods exercises StepMinFlood, StepHopMax, and
// StepRankFlood directly on a known topology: a path where exactly one node
// holds a sample.
func TestStepEstimatorFloods(t *testing.T) {
	g := graph.Path(5)
	prog := func(nd *congest.Node) congest.StepProgram[estimatorOut] {
		return &estimatorProbe{}
	}
	for _, shards := range []int{0, 3} {
		res, err := congest.RunProgram(congest.Config{Graph: g, Seed: 1, Shards: shards}, prog)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for v, o := range res.Outputs {
			// Node 2 holds sample 42; after one flood its G-neighbors see it.
			wantMin := int64(-1)
			if v >= 1 && v <= 3 {
				wantMin = 42
			}
			if o.Min != wantMin {
				t.Errorf("shards=%d: node %d min = %d, want %d", shards, v, o.Min, wantMin)
			}
			// 2 hops of max over values = id: nodes see max id within 2 hops.
			wantHop := int64(min(v+2, 4))
			if o.HopMax != wantHop {
				t.Errorf("shards=%d: node %d hopMax = %d, want %d", shards, v, o.HopMax, wantHop)
			}
			// Only node 3 holds rank 5; neighbors learn (5, 3).
			if v >= 2 && v <= 4 {
				if o.Rank != 5 || o.RankID != 3 {
					t.Errorf("shards=%d: node %d rank = (%d,%d), want (5,3)", shards, v, o.Rank, o.RankID)
				}
				if v != 3 && o.Senders != 1 {
					t.Errorf("shards=%d: node %d saw %d rank senders, want 1", shards, v, o.Senders)
				}
			} else if o.RankID != -1 {
				t.Errorf("shards=%d: node %d rankID = %d, want -1", shards, v, o.RankID)
			}
		}
	}
}

type estimatorOut struct {
	Min     int64
	HopMax  int64
	Rank    int64
	RankID  int64
	Senders int
}

type estimatorProbe struct {
	stage int
	mf    *StepMinFlood
	hm    *StepHopMax
	rf    *StepRankFlood
	out   estimatorOut
}

func (p *estimatorProbe) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if p.mf == nil {
				own := int64(-1)
				if nd.ID() == 2 {
					own = 42
				}
				p.mf = NewStepMinFlood(own, 8)
			}
			if !p.mf.Step(nd) {
				return false, nil
			}
			p.out.Min = p.mf.Min()
			p.hm = NewStepHopMax(int64(nd.ID()), 4, 2)
			p.stage = 1
		case 1:
			if !p.hm.Step(nd) {
				return false, nil
			}
			p.out.HopMax = p.hm.Max()
			rank := int64(-1)
			if nd.ID() == 3 {
				rank = 5
			}
			p.rf = NewStepRankFlood(rank, int64(nd.ID()), 8, 4)
			p.stage = 2
		default:
			if !p.rf.Step(nd) {
				return false, nil
			}
			p.out.Rank, p.out.RankID = p.rf.Best()
			p.out.Senders = len(p.rf.Senders())
			return true, nil
		}
	}
}

func (p *estimatorProbe) Output() estimatorOut { return p.out }
