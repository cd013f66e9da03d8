package congest

import (
	"errors"
	"fmt"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

func TestIDBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Errorf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSingleRoundNeighborExchange(t *testing.T) {
	// Every node sends its id to all neighbors; after one round, each node
	// must have received exactly its neighbor set.
	g := graph.Cycle(5)
	res, err := Run(Config{Graph: g}, func(nd *Node) ([]int, error) {
		nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
		nd.NextRound()
		var got []int
		for _, in := range nd.Recv() {
			m := in.Msg.(Int)
			if int64(in.From) != m.V {
				return nil, fmt.Errorf("sender mismatch: %d vs %d", in.From, m.V)
			}
			got = append(got, int(m.V))
		}
		return got, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.Messages != 10 {
		t.Fatalf("messages = %d, want 10", res.Stats.Messages)
	}
	for v := 0; v < 5; v++ {
		want := g.Neighbors(v)
		got := res.Outputs[v]
		if len(got) != len(want) {
			t.Fatalf("node %d: got %v want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d: got %v want %v", v, got, want)
			}
		}
	}
}

func TestMessagesArriveNextRoundOnly(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if len(nd.Recv()) != 0 {
			return 0, errors.New("round-0 inbox not empty")
		}
		nd.MustSend(1-nd.ID(), Flag{})
		// Same round: still nothing.
		if len(nd.Recv()) != 0 {
			return 0, errors.New("message visible before barrier")
		}
		nd.NextRound()
		if len(nd.Recv()) != 1 {
			return 0, errors.New("message not delivered after barrier")
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() != 0 {
			nd.NextRound()
			return 0, nil
		}
		if err := nd.Send(0, Flag{}); err == nil {
			return 0, errors.New("self-send accepted")
		}
		if err := nd.Send(5, Flag{}); err == nil {
			return 0, errors.New("out of range accepted")
		}
		if err := nd.Send(2, Flag{}); err == nil {
			return 0, errors.New("non-neighbor accepted in CONGEST")
		}
		if err := nd.Send(1, Flag{}); err != nil {
			return 0, err
		}
		if err := nd.Send(1, Flag{}); err == nil {
			return 0, errors.New("duplicate per-round send accepted")
		}
		// The duplicate guard must reset at the round boundary.
		nd.NextRound()
		if err := nd.Send(1, Flag{}); err != nil {
			return 0, fmt.Errorf("fresh-round send rejected: %w", err)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(Config{Graph: g, BandwidthFactor: 1}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			// n=2 ⇒ B = 1 bit; a 2-bit message must be rejected.
			if err := nd.Send(1, NewIntWidth(3, 2)); err == nil {
				return 0, errors.New("oversized message accepted")
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMustSendViolationAbortsRun(t *testing.T) {
	g := graph.Path(3)
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			nd.MustSend(2, Flag{}) // not a neighbor: must abort the run
		}
		for i := 0; i < 10; i++ {
			nd.NextRound()
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error from MustSend violation")
	}
}

func TestHandlerErrorAbortsRun(t *testing.T) {
	g := graph.Cycle(4)
	sentinel := errors.New("boom")
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 2 {
			return 0, sentinel
		}
		// Other nodes would wait forever without the abort.
		for {
			nd.NextRound()
		}
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 1 {
			panic("algorithm bug")
		}
		nd.NextRound()
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error from panicking handler")
	}
}

func TestMaxRounds(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(Config{Graph: g, MaxRounds: 5}, func(nd *Node) (int, error) {
		for {
			nd.NextRound()
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestCliqueModelAllToAll(t *testing.T) {
	// In the CONGESTED CLIQUE over a path, node 0 can message node 3
	// directly even though they are not adjacent in G.
	g := graph.Path(4)
	res, err := Run(Config{Graph: g, Model: CongestedClique}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			nd.MustSend(3, NewInt(42))
		}
		nd.NextRound()
		if nd.ID() == 3 {
			if len(nd.Recv()) != 1 || nd.Recv()[0].Msg.(Int).V != 42 {
				return 0, errors.New("clique message lost")
			}
			return 42, nil
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[3] != 42 {
		t.Fatal("output not propagated")
	}
	// Degree still reflects the input graph.
	_, err = Run(Config{Graph: g, Model: CongestedClique}, func(nd *Node) (int, error) {
		if nd.ID() == 1 && nd.Degree() != 2 {
			return 0, errors.New("clique model changed input degrees")
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCliqueBroadcastReachesEveryone(t *testing.T) {
	g := graph.Path(4)
	cut := bitset.FromIndices(4, 0, 1)
	res, err := Run(Config{Graph: g, Model: CongestedClique, CutA: cut}, func(nd *Node) (int, error) {
		nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
		nd.NextRound()
		return len(nd.Recv()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Outputs {
		if c != 3 {
			t.Fatalf("node %d received %d messages, want 3", v, c)
		}
	}
	if res.Stats.Messages != 12 {
		t.Fatalf("messages = %d, want 12", res.Stats.Messages)
	}
	// 2×2 ordered pairs across the cut in each direction: 8 crossing messages.
	if res.Stats.CutMessages != 8 {
		t.Fatalf("cut messages = %d, want 8", res.Stats.CutMessages)
	}
}

func TestStatsBitCounting(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			nd.MustSend(1, NewIntWidth(7, 3))
		}
		nd.NextRound()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalBits != 3 || res.Stats.Messages != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestCutAccounting(t *testing.T) {
	// Path 0-1-2-3 with cut A = {0,1}: only messages over edge 1-2 cross.
	g := graph.Path(4)
	cut := bitset.FromIndices(4, 0, 1)
	res, err := Run(Config{Graph: g, CutA: cut}, func(nd *Node) (int, error) {
		nd.Broadcast(Flag{})
		nd.NextRound()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutMessages != 2 || res.Stats.CutBits != 2 {
		t.Fatalf("cut stats = %+v", res.Stats)
	}
	if res.Stats.Messages != 6 {
		t.Fatalf("messages = %d", res.Stats.Messages)
	}
}

func TestCongestionPeakAccounting(t *testing.T) {
	// Round 0: everyone broadcasts (peak). Round 1: only node 0 sends.
	g := graph.Cycle(6)
	res, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		nd.Broadcast(NewIntWidth(1, 2))
		nd.NextRound()
		if nd.ID() == 0 {
			nd.MustSend(nd.Neighbors()[0], NewIntWidth(1, 2))
		}
		nd.NextRound()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxRoundMessages != 12 {
		t.Fatalf("peak messages = %d, want 12", res.Stats.MaxRoundMessages)
	}
	if res.Stats.MaxRoundBits != 24 {
		t.Fatalf("peak bits = %d, want 24", res.Stats.MaxRoundBits)
	}
	if res.Stats.Messages != 13 {
		t.Fatalf("total = %d, want 13", res.Stats.Messages)
	}
}

func TestConcurrentRunsShareGraphSafely(t *testing.T) {
	// Graphs are immutable; multiple simulations over the same graph must
	// be able to run concurrently (validated under -race).
	g := graph.Grid(5, 5)
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			_, err := Run(Config{Graph: g, Seed: seed}, func(nd *Node) (int, error) {
				for r := 0; r < 20; r++ {
					nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
					nd.NextRound()
				}
				return 0, nil
			})
			errs <- err
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterministicRandomness(t *testing.T) {
	g := graph.Cycle(6)
	run := func(shards int) []int64 {
		res, err := Run(Config{Graph: g, Seed: 99, Shards: shards}, func(nd *Node) (int64, error) {
			return nd.Rand().Int63(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(0), run(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different node randomness")
		}
	}
	// A node's stream depends only on the seed and its id, never on the
	// shard that steps it.
	for i, v := range run(4) {
		if v != a[i] {
			t.Fatal("per-node random streams differ across shard counts")
		}
	}
	seen := map[int64]bool{}
	for _, v := range a {
		if seen[v] {
			t.Fatal("two nodes share a random stream")
		}
		seen[v] = true
	}
}

func TestEarlyFinisherDoesNotBlockOthers(t *testing.T) {
	g := graph.Path(3)
	res, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		if nd.ID() == 0 {
			return 1, nil // returns immediately, before any round
		}
		nd.NextRound()
		nd.NextRound()
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 1 || res.Outputs[2] != 2 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestMessagesFromEarlyFinisherStillDelivered(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(Config{Graph: g}, func(nd *Node) (bool, error) {
		if nd.ID() == 0 {
			nd.MustSend(1, Flag{})
			return true, nil // finish without NextRound; message must still go out
		}
		nd.NextRound()
		return len(nd.Recv()) == 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[1] {
		t.Fatal("message from finished node was dropped")
	}
}

func TestRecvFrom(t *testing.T) {
	g := graph.Path(3)
	_, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		nd.Broadcast(NewIntWidth(int64(nd.ID()), 4))
		nd.NextRound()
		if nd.ID() == 1 {
			m, ok := nd.RecvFrom(2)
			if !ok || m.(Int).V != 2 {
				return 0, errors.New("RecvFrom(2) failed")
			}
			if _, ok := nd.RecvFrom(1); ok {
				return 0, errors.New("RecvFrom(self) should be empty")
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(Config{Graph: graph.NewBuilder(0).Build()}, func(nd *Node) (int, error) {
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Fatal("unexpected outputs")
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := Run(Config{}, func(nd *Node) (int, error) { return 0, nil }); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestManyRoundsStress(t *testing.T) {
	// 200 nodes × 100 rounds of full neighbor exchange over a random graph.
	g := graph.Grid(10, 20)
	res, err := Run(Config{Graph: g}, func(nd *Node) (int, error) {
		sum := 0
		for r := 0; r < 100; r++ {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
			nd.NextRound()
			sum += len(nd.Recv())
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 100 {
		t.Fatalf("rounds = %d", res.Stats.Rounds)
	}
	for v, got := range res.Outputs {
		if got != 100*g.Degree(v) {
			t.Fatalf("node %d: received %d, want %d", v, got, 100*g.Degree(v))
		}
	}
}
