package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// shardCounts are the counts runShards and the TestBatch* tests run the
// engine at: the sequential sweep and two sharded sweeps.
var shardCounts = []int{1, 2, 7}

// runShards executes the same handler at every count in shardCounts,
// requiring identical outputs and statistics, and returns the sequential
// result.
func runShards[T any](t *testing.T, cfg Config, handler Handler[T]) *Result[T] {
	t.Helper()
	var want *Result[T]
	for _, shards := range shardCounts {
		cfg.Shards = shards
		got, err := Run(cfg, handler)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want.Outputs, got.Outputs) {
			t.Fatalf("shards=%d outputs differ from sequential:\nsequential: %v\nsharded:    %v", shards, want.Outputs, got.Outputs)
		}
		if want.Stats != got.Stats {
			t.Fatalf("shards=%d stats differ from sequential:\nsequential: %+v\nsharded:    %+v", shards, want.Stats, got.Stats)
		}
	}
	return want
}

func TestBatchNeighborExchange(t *testing.T) {
	g := graph.Grid(6, 7)
	res := runShards(t, Config{Graph: g, Seed: 3}, func(nd *Node) ([]int, error) {
		var got []int
		for r := 0; r < 10; r++ {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
			nd.NextRound()
			for _, in := range nd.Recv() {
				got = append(got, int(in.Msg.Int()))
			}
		}
		return got, nil
	})
	if res.Stats.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10", res.Stats.Rounds)
	}
	for v, got := range res.Outputs {
		if len(got) != 10*g.Degree(v) {
			t.Fatalf("node %d received %d ids, want %d", v, len(got), 10*g.Degree(v))
		}
	}
}

func TestBatchSendValidation(t *testing.T) {
	g := graph.Path(3)
	for _, shards := range shardCounts {
		_, err := Run(Config{Graph: g, Shards: shards}, func(nd *Node) (int, error) {
			if nd.ID() != 0 {
				nd.NextRound()
				return 0, nil
			}
			if err := nd.Send(0, Flag()); err == nil {
				return 0, errors.New("self-send accepted")
			}
			if err := nd.Send(5, Flag()); err == nil {
				return 0, errors.New("out of range accepted")
			}
			if err := nd.Send(2, Flag()); err == nil {
				return 0, errors.New("non-neighbor accepted in CONGEST")
			}
			if err := nd.Send(1, Flag()); err != nil {
				return 0, err
			}
			if err := nd.Send(1, Flag()); err == nil {
				return 0, errors.New("duplicate per-round send accepted")
			}
			// The duplicate guard must reset at the round boundary.
			nd.NextRound()
			if err := nd.Send(1, Flag()); err != nil {
				return 0, fmt.Errorf("fresh-round send rejected: %w", err)
			}
			return 0, nil
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

func TestBatchEarlyFinisherAndDelivery(t *testing.T) {
	g := graph.Path(3)
	res := runShards(t, Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			nd.MustSend(1, Flag())
			return 1, nil // message queued in the final step must still arrive
		}
		nd.NextRound()
		got := len(nd.Recv())
		nd.NextRound()
		return 10 + got, nil
	})
	if res.Outputs[0] != 1 || res.Outputs[1] != 11 || res.Outputs[2] != 10 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestBatchMaxRounds(t *testing.T) {
	for _, shards := range shardCounts {
		_, err := Run(Config{Graph: graph.Path(2), MaxRounds: 5, Shards: shards},
			func(nd *Node) (int, error) {
				for {
					nd.NextRound()
				}
			})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("shards=%d: err = %v, want ErrMaxRounds", shards, err)
		}
	}
}

func TestBatchHandlerErrorAbortsRun(t *testing.T) {
	sentinel := errors.New("boom")
	for _, shards := range shardCounts {
		_, err := Run(Config{Graph: graph.Cycle(4), Shards: shards}, func(nd *Node) (int, error) {
			if nd.ID() == 2 {
				return 0, sentinel
			}
			for {
				nd.NextRound()
			}
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("shards=%d: err = %v, want wrapped sentinel", shards, err)
		}
	}
}

func TestBatchHandlerPanicBecomesError(t *testing.T) {
	for _, shards := range shardCounts {
		_, err := Run(Config{Graph: graph.Path(2), Shards: shards}, func(nd *Node) (int, error) {
			if nd.ID() == 1 {
				panic("algorithm bug")
			}
			nd.NextRound()
			return 0, nil
		})
		if err == nil {
			t.Fatalf("shards=%d: expected error from panicking handler", shards)
		}
	}
}

func TestBatchMustSendViolationAbortsRun(t *testing.T) {
	for _, shards := range shardCounts {
		_, err := Run(Config{Graph: graph.Path(3), Shards: shards}, func(nd *Node) (int, error) {
			if nd.ID() == 0 {
				nd.MustSend(2, Flag()) // not a neighbor
			}
			for i := 0; i < 10; i++ {
				nd.NextRound()
			}
			return 0, nil
		})
		if err == nil {
			t.Fatalf("shards=%d: expected error from MustSend violation", shards)
		}
	}
}

func TestBatchCliqueAndCutAccounting(t *testing.T) {
	g := graph.Path(4)
	cut := bitset.FromIndices(4, 0, 1)
	res := runShards(t, Config{Graph: g, Model: CongestedClique, CutA: cut},
		func(nd *Node) (int, error) {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
			nd.NextRound()
			return len(nd.Recv()), nil
		})
	if res.Stats.Messages != 12 {
		t.Fatalf("messages = %d, want 12", res.Stats.Messages)
	}
	// 2×2 ordered pairs across the cut in each direction: 8 crossing messages.
	if res.Stats.CutMessages != 8 {
		t.Fatalf("cut messages = %d, want 8", res.Stats.CutMessages)
	}
}

// TestBatchDeterministicRandomness checks that a node's random stream is
// the same whether the node runs as a blocking handler or as a native step
// program: both are driven by one engine seeded per node.
func TestBatchDeterministicRandomness(t *testing.T) {
	g := graph.Cycle(6)
	cfg := Config{Graph: g, Seed: 99}
	h, err := Run(cfg, func(nd *Node) (int64, error) {
		return nd.Rand().Int63(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunProgram(cfg, func(nd *Node) StepProgram[int64] {
		return &randProgram{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Outputs, p.Outputs) {
		t.Fatalf("per-node random streams differ between handler and step program:\n%v\n%v",
			h.Outputs, p.Outputs)
	}
}

// randProgram draws one value from its node's random stream and finishes.
type randProgram struct{ v int64 }

func (p *randProgram) Step(nd *Node) (bool, error) {
	p.v = nd.Rand().Int63()
	return true, nil
}

func (p *randProgram) Output() int64 { return p.v }

// TestEngineDifferentialRandomTraffic drives an adversarial random workload
// — per-node random sends, random message widths, random early exits —
// through the sequential sweep and the sharded sweep at 2 and 7 shards and
// requires identical outputs and stats.
func TestEngineDifferentialRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		model Model
	}{
		{"gnp-congest", graph.ConnectedGNP(40, 0.15, newRand(7)), CONGEST},
		{"grid-congest", graph.Grid(6, 6), CONGEST},
		{"path-clique", graph.Path(12), CongestedClique},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := bitset.New(tc.g.N())
			for v := 0; v < tc.g.N()/2; v++ {
				cut.Add(v)
			}
			runShards(t, Config{Graph: tc.g, Model: tc.model, Seed: 42, CutA: cut},
				func(nd *Node) (int64, error) {
					rng := nd.Rand()
					sum := int64(0)
					rounds := 5 + rng.Intn(15) // nodes finish at different times
					for r := 0; r < rounds; r++ {
						var peers []int
						if nd.eng.model == CongestedClique {
							for v := 0; v < nd.N(); v++ {
								if v != nd.ID() {
									peers = append(peers, v)
								}
							}
						} else {
							peers = nd.Neighbors()
						}
						for _, u := range peers {
							if rng.Intn(3) == 0 {
								nd.MustSend(u, NewIntWidth(int64(rng.Intn(16)), 5))
							}
						}
						nd.NextRound()
						for _, in := range nd.Recv() {
							sum += in.Msg.Int() * int64(in.From+1)
						}
					}
					return sum, nil
				})
		})
	}
}

// floodProgram is a native step program: each node learns the minimum id in
// the network by flooding for n rounds. Used to prove the step path matches
// the equivalent blocking handler.
type floodProgram struct {
	best   int64
	rounds int
}

func (p *floodProgram) Step(nd *Node) (bool, error) {
	if p.rounds > 0 {
		for _, in := range nd.Recv() {
			if v := in.Msg.Int(); v < p.best {
				p.best = v
			}
		}
	}
	if p.rounds == nd.N() {
		return true, nil
	}
	for _, u := range nd.Neighbors() {
		nd.MustSend(u, NewIntWidth(p.best, IDBits(nd.N())))
	}
	p.rounds++
	return false, nil
}

func (p *floodProgram) Output() int64 { return p.best }

func TestRunProgramMatchesHandler(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.12, newRand(5))
	handler := func(nd *Node) (int64, error) {
		best := int64(nd.ID())
		for r := 0; r < nd.N(); r++ {
			for _, u := range nd.Neighbors() {
				nd.MustSend(u, NewIntWidth(best, IDBits(nd.N())))
			}
			nd.NextRound()
			for _, in := range nd.Recv() {
				if v := in.Msg.Int(); v < best {
					best = v
				}
			}
		}
		return best, nil
	}
	newProg := func(nd *Node) StepProgram[int64] {
		return &floodProgram{best: int64(nd.ID())}
	}
	h, err := Run(Config{Graph: g}, handler)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunProgram(Config{Graph: g}, newProg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Outputs, p.Outputs) {
		t.Fatal("step program outputs differ from the handler's")
	}
	if h.Stats != p.Stats {
		t.Fatalf("stats differ: handler %+v vs step program %+v", h.Stats, p.Stats)
	}
	for v, out := range h.Outputs {
		if out != 0 {
			t.Fatalf("node %d: min id = %d, want 0", v, out)
		}
	}
}

func TestRunProgramStepErrorAndPanic(t *testing.T) {
	g := graph.Path(3)
	sentinel := errors.New("step failed")
	_, err := RunProgram(Config{Graph: g}, func(nd *Node) StepProgram[int] {
		return stepFunc[int](func(n *Node) (bool, error) {
			if n.ID() == 1 && n.Round() == 2 {
				return false, sentinel
			}
			return false, nil
		})
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	_, err = RunProgram(Config{Graph: g}, func(nd *Node) StepProgram[int] {
		return stepFunc[int](func(n *Node) (bool, error) {
			if n.ID() == 2 {
				panic("native step bug")
			}
			return false, nil
		})
	})
	if err == nil {
		t.Fatal("expected error from panicking step")
	}
	// A MustSend violation inside a native step aborts the run, too.
	_, err = RunProgram(Config{Graph: g}, func(nd *Node) StepProgram[int] {
		return stepFunc[int](func(n *Node) (bool, error) {
			if n.ID() == 0 {
				n.MustSend(2, Flag()) // not a neighbor
			}
			return n.Round() >= 3, nil
		})
	})
	if err == nil {
		t.Fatal("expected error from MustSend violation in step")
	}
}

// stepFunc adapts a plain function to StepProgram for tests.
type stepFunc[T any] func(*Node) (bool, error)

func (f stepFunc[T]) Step(nd *Node) (bool, error) { return f(nd) }
func (f stepFunc[T]) Output() T                   { var zero T; return zero }
