package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// pipelineOut is the observable outcome of the composed primitive chain.
type pipelineOut struct {
	Leader    int
	Depth     int
	Gathered  int    // root's collected item count (0 elsewhere)
	FloodView string // every node's view of the flooded items
}

// blockingPipeline chains every blocking primitive: elect a leader, build
// its BFS tree, gather one item per node at the root, flood a derived item
// list back down.
func blockingPipeline(nd *congest.Node) (pipelineOut, error) {
	n := nd.N()
	w := congest.IDBits(n)
	leader := MinIDLeader(nd)
	tree := BFSTree(nd, leader)
	items := []congest.Message{congest.NewIntWidth(int64(nd.ID()), w)}
	gathered := GatherAtRoot(nd, tree, items)
	var down []congest.Message
	if nd.ID() == leader {
		sum := int64(0)
		for _, m := range gathered {
			sum += m.(congest.Int).V
		}
		down = []congest.Message{congest.NewInt(sum), congest.NewIntWidth(int64(len(gathered)), w)}
	}
	got := FloodItemsFromRoot(nd, tree, down)
	return pipelineOut{
		Leader:    leader,
		Depth:     tree.Depth,
		Gathered:  len(gathered),
		FloodView: fmt.Sprint(got),
	}, nil
}

// stepPipeline is the same chain assembled from the step-form twins.
type stepPipeline struct {
	stage  int
	minID  *StepMinIDLeader
	bfs    *StepBFSTree
	tree   Tree
	gather *StepGatherAtRoot
	flood  *StepFloodItemsFromRoot
	out    pipelineOut
}

func (p *stepPipeline) Step(nd *congest.Node) (bool, error) {
	n := nd.N()
	w := congest.IDBits(n)
	for {
		switch p.stage {
		case 0:
			if p.minID == nil {
				p.minID = NewStepMinIDLeader(nd)
			}
			if !p.minID.Step(nd) {
				return false, nil
			}
			p.out.Leader = p.minID.Leader()
			p.bfs = NewStepBFSTree(nd, p.out.Leader)
			p.stage = 1
		case 1:
			if !p.bfs.Step(nd) {
				return false, nil
			}
			p.tree = p.bfs.Tree()
			p.out.Depth = p.tree.Depth
			items := []congest.Message{congest.NewIntWidth(int64(nd.ID()), w)}
			p.gather = NewStepGatherAtRoot(nd, &p.tree, items)
			p.stage = 2
		case 2:
			if !p.gather.Step(nd) {
				return false, nil
			}
			gathered := p.gather.Collected()
			p.out.Gathered = len(gathered)
			var down []congest.Message
			if nd.ID() == p.out.Leader {
				sum := int64(0)
				for _, m := range gathered {
					sum += m.(congest.Int).V
				}
				down = []congest.Message{congest.NewInt(sum), congest.NewIntWidth(int64(len(gathered)), w)}
			}
			p.flood = NewStepFloodItemsFromRoot(nd, &p.tree, down)
			p.stage = 3
		default:
			if !p.flood.Step(nd) {
				return false, nil
			}
			p.out.FloodView = fmt.Sprint(p.flood.Items())
			return true, nil
		}
	}
}

func (p *stepPipeline) Output() pipelineOut { return p.out }

// TestStepPrimitivesMatchBlocking proves the step-form primitives are
// message-for-message equivalent to their blocking twins: the composed
// chain produces identical outputs and identical simulator statistics,
// sequential and sharded, across topologies that stress every primitive (deep trees,
// stars, random graphs).
func TestStepPrimitivesMatchBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path13": graph.Path(13),
		"star9":  graph.Star(9),
		"grid45": graph.Grid(4, 5),
		"gnp25":  graph.ConnectedGNP(25, 0.15, rng),
		"tree30": graph.RandomTree(30, rng),
	}
	for name, g := range graphs {
		var results []*congest.Result[pipelineOut]
		for _, shards := range []int{0, 3} {
			cfg := congest.Config{Graph: g, Seed: 4, Shards: shards}
			blk, err := congest.Run(cfg, blockingPipeline)
			if err != nil {
				t.Fatalf("%s shards=%d blocking: %v", name, shards, err)
			}
			stp, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[pipelineOut] {
				return &stepPipeline{}
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
		// Sanity: the chain did real work — everyone agrees on leader 0,
		// and the root gathered one item per node.
		for v, out := range results[0].Outputs {
			if out.Leader != 0 {
				t.Fatalf("%s: node %d elected %d", name, v, out.Leader)
			}
			if v == 0 && out.Gathered != g.N() {
				t.Fatalf("%s: root gathered %d items, want %d", name, out.Gathered, g.N())
			}
		}
	}
}
