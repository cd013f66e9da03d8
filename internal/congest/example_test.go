package congest_test

import (
	"fmt"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// Example runs a one-round neighbor id exchange on a 4-cycle: every node
// broadcasts its id, crosses the round barrier, and counts what arrived.
func Example() {
	g := graph.Cycle(4)
	cfg := congest.Config{Graph: g}
	res, err := congest.Run(cfg, func(nd *congest.Node) (int, error) {
		nd.Broadcast(congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N())))
		nd.NextRound()
		sum := 0
		for _, in := range nd.Recv() {
			sum += int(in.Msg.(congest.Int).V)
		}
		return sum, nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Stats.Rounds)
	fmt.Println("messages:", res.Stats.Messages)
	fmt.Println("node 0 neighbor-id sum:", res.Outputs[0])
	// Output:
	// rounds: 1
	// messages: 8
	// node 0 neighbor-id sum: 4
}

// minProgram is a step-structured node program: Step runs once per round as
// a plain function call (no goroutine per node). It
// floods the minimum id for n rounds.
type minProgram struct {
	best   int64
	rounds int
}

func (p *minProgram) Step(nd *congest.Node) (bool, error) {
	for _, in := range nd.Recv() {
		if v := in.Msg.(congest.Int).V; v < p.best {
			p.best = v
		}
	}
	if p.rounds == nd.N() {
		return true, nil
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(p.best, congest.IDBits(nd.N())))
	p.rounds++
	return false, nil
}

func (p *minProgram) Output() int64 { return p.best }

// ExampleRunProgram elects a leader (the minimum id) with a step program —
// the shape the engine executes fastest.
func ExampleRunProgram() {
	g := graph.Path(5)
	cfg := congest.Config{Graph: g}
	res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[int64] {
		return &minProgram{best: int64(nd.ID())}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("every node agrees on leader:", res.Outputs[0], res.Outputs[4])
	fmt.Println("rounds:", res.Stats.Rounds)
	// Output:
	// every node agrees on leader: 0 0
	// rounds: 5
}
