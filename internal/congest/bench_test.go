package congest

import (
	"fmt"
	"testing"

	"powergraph/internal/graph"
)

// BenchmarkEngine compares the engine's two program shapes — a blocking
// handler through the coroutine adapter and the native step program — on
// the simulator's canonical hot loop: R rounds of full neighbor exchange.
// This isolates engine overhead — scheduling, outbox/inbox management —
// from algorithm-local work. Run it with `make bench-engine`.
func BenchmarkEngine(b *testing.B) {
	const rounds = 50
	for _, n := range []int{256, 1024, 2048} {
		g := graph.ConnectedGNP(n, 8/float64(n), newRand(1))
		w := IDBits(n)
		handler := func(nd *Node) (int, error) {
			sum := 0
			for r := 0; r < rounds; r++ {
				nd.Broadcast(NewIntWidth(int64(nd.ID()), w))
				nd.NextRound()
				sum += len(nd.Recv())
			}
			return sum, nil
		}
		b.Run(fmt.Sprintf("n=%d/handler", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Graph: g}, handler); err != nil {
					b.Fatal(err)
				}
			}
			reportNodeRounds(b, n, rounds)
		})
		b.Run(fmt.Sprintf("n=%d/program", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunProgram(Config{Graph: g},
					func(nd *Node) StepProgram[int] { return &exchangeProgram{rounds: rounds, width: w} })
				if err != nil {
					b.Fatal(err)
				}
			}
			reportNodeRounds(b, n, rounds)
		})
	}
}

func reportNodeRounds(b *testing.B, n, rounds int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*rounds), "ns/node-round")
}

// exchangeProgram is the step-structured form of the benchmark handler.
type exchangeProgram struct {
	rounds int
	width  int
	sum    int
}

func (p *exchangeProgram) Step(nd *Node) (bool, error) {
	if nd.Round() > 0 {
		p.sum += len(nd.Recv())
	}
	if nd.Round() == p.rounds {
		return true, nil
	}
	nd.Broadcast(NewIntWidth(int64(nd.ID()), p.width))
	return false, nil
}

func (p *exchangeProgram) Output() int { return p.sum }
