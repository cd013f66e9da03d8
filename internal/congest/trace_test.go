package congest

import (
	"bytes"
	"fmt"
	"testing"

	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// traceExchange is the spanned version of the bench handler: rounds of full
// neighbor exchange wrapped in an outer "work" span, each round in its own
// "work-iter" span, with node 0 additionally emitting a zero-length
// "solo" span and an unmatched end that the engine must filter.
func traceExchange(rounds, width int) Handler[int] {
	return func(nd *Node) (int, error) {
		nd.SpanBegin("work", 0)
		nd.SpanEnd("never-begun", 0) // unmatched: must not reach the tracer
		sum := 0
		for r := 0; r < rounds; r++ {
			nd.SpanBegin("work-iter", r)
			nd.Broadcast(NewIntWidth(int64(nd.ID()), width))
			nd.NextRound()
			sum += len(nd.Recv())
			nd.SpanEnd("work-iter", r)
		}
		if nd.ID() == 0 {
			nd.SpanBegin("solo", 0)
			nd.SpanEnd("solo", 0)
		}
		nd.SpanEnd("work", 0)
		return sum, nil
	}
}

// TestTraceRoundConformance is the engine-level trace contract: with a
// rounds-subscribed tracer attached, the engine emits one RoundEvent per
// counted round (monotone, complete), the events' sums reproduce the
// end-of-run Stats exactly, and the span marks respect the refcount
// semantics. The sequential and sharded sweeps' event streams must also
// agree with each other.
func TestTraceRoundConformance(t *testing.T) {
	const rounds = 17
	g := graph.ConnectedGNP(40, 0.2, newRand(3))
	w := IDBits(g.N())

	type stream struct {
		events []obs.RoundEvent
		res    *Result[int]
		col    *obs.Collector
	}
	streams := map[int]*stream{}
	for _, shards := range []int{0, 3} {
		col := &obs.Collector{CollectRounds: true}
		res, err := Run(Config{Graph: g, Shards: shards, Seed: 11, Tracer: col}, traceExchange(rounds, w))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		streams[shards] = &stream{events: col.RoundEvents(), res: res, col: col}
	}

	for shards, s := range streams {
		evs, stats := s.events, s.res.Stats
		if len(evs) != stats.Rounds {
			t.Fatalf("shards=%d: %d round events for %d counted rounds", shards, len(evs), stats.Rounds)
		}
		var bits, msgs int64
		var maxBits, maxMsgs int64
		for i, ev := range evs {
			if ev.Round != i {
				t.Fatalf("shards=%d: event %d carries round %d (not monotone-complete)", shards, i, ev.Round)
			}
			if ev.Active <= 0 || ev.Active > g.N() {
				t.Fatalf("shards=%d: round %d has %d active nodes", shards, i, ev.Active)
			}
			if ev.MaxLink > ev.Bits || (ev.Messages > 0 && ev.MaxLink <= 0) {
				t.Fatalf("shards=%d: round %d maxLink %d inconsistent with bits %d", shards, i, ev.MaxLink, ev.Bits)
			}
			bits += ev.Bits
			msgs += ev.Messages
			if ev.Bits > maxBits {
				maxBits = ev.Bits
			}
			if ev.Messages > maxMsgs {
				maxMsgs = ev.Messages
			}
		}
		if bits != stats.TotalBits || msgs != stats.Messages {
			t.Fatalf("shards=%d: event sums bits=%d msgs=%d vs stats bits=%d msgs=%d",
				shards, bits, msgs, stats.TotalBits, stats.Messages)
		}
		if maxBits != stats.MaxRoundBits || maxMsgs != stats.MaxRoundMessages {
			t.Fatalf("shards=%d: event maxima bits=%d msgs=%d vs stats bits=%d msgs=%d",
				shards, maxBits, maxMsgs, stats.MaxRoundBits, stats.MaxRoundMessages)
		}

		info, end, ok := s.col.Run()
		if !ok {
			t.Fatalf("shards=%d: missing run-start/run-end", shards)
		}
		if info.N != g.N() || info.Engine == "" || info.Model != CONGEST.String() {
			t.Fatalf("shards=%d: run info %+v", shards, info)
		}
		if end.Rounds != stats.Rounds || end.TotalBits != stats.TotalBits || end.Error != "" {
			t.Fatalf("shards=%d: run end %+v vs stats %+v", shards, end, stats)
		}

		if open := s.col.OpenSpans(); len(open) != 0 {
			t.Fatalf("shards=%d: unclosed spans %v", shards, open)
		}
		begins, ends := s.col.SpanMarks()
		if len(begins) != len(ends) {
			t.Fatalf("shards=%d: %d begins vs %d ends", shards, len(begins), len(ends))
		}
		for _, mk := range begins {
			if mk.Name == "never-begun" {
				t.Fatalf("shards=%d: unmatched end leaked through as a begin", shards)
			}
		}
		// work: one refcounted completion across all nodes; work-iter: one
		// completion per iteration; solo: node 0's zero-length span.
		sum := s.col.SpanSummary()
		want := fmt.Sprintf("work*1:%d;work-iter*%d:%d", stats.Rounds, rounds, rounds)
		if sum != want+";solo*1:0" && sum != want {
			t.Fatalf("shards=%d: span summary %q, want %q(;solo*1:0)", shards, sum, want)
		}
	}

	// Shard differential on the trace itself.
	seq, shd := streams[0], streams[3]
	if len(seq.events) != len(shd.events) {
		t.Fatalf("sweeps emit different round counts: %d vs %d", len(seq.events), len(shd.events))
	}
	for i := range seq.events {
		if seq.events[i] != shd.events[i] {
			t.Fatalf("round %d diverges: sequential %+v vs sharded %+v", i, seq.events[i], shd.events[i])
		}
	}
	if ss, hs := seq.col.SpanSummary(), shd.col.SpanSummary(); ss != hs {
		t.Fatalf("span summaries diverge: sequential %q vs sharded %q", ss, hs)
	}
}

// TestTraceDoesNotPerturbRun pins the observation contract: the same seeded
// config produces identical Stats and outputs with a full tracer attached,
// with a span-only tracer attached, and with none.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.25, newRand(5))
	w := IDBits(g.N())
	for _, shards := range []int{0, 3} {
		run := func(tr obs.Tracer) *Result[int] {
			res, err := Run(Config{Graph: g, Shards: shards, Seed: 9, Tracer: tr}, traceExchange(12, w))
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return res
		}
		bare := run(nil)
		spanOnly := run(&obs.Collector{})
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		full := run(obs.Multi{jw, &obs.Collector{CollectRounds: true}})
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		for name, traced := range map[string]*Result[int]{"span-only": spanOnly, "full": full} {
			if traced.Stats != bare.Stats {
				t.Fatalf("shards=%d: %s tracer perturbed stats: %+v vs %+v", shards, name, traced.Stats, bare.Stats)
			}
			for i := range bare.Outputs {
				if traced.Outputs[i] != bare.Outputs[i] {
					t.Fatalf("shards=%d: %s tracer perturbed node %d output", shards, name, i)
				}
			}
		}
		if buf.Len() == 0 {
			t.Fatal("JSONL tracer wrote nothing")
		}
	}
}
