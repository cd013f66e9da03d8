package congest

import (
	"context"
	"fmt"

	"powergraph/internal/bitset"
	"powergraph/internal/obs"
)

// engine is the per-run simulation state. No field needs a lock: node
// programs reach it one at a time, in id order (a coroutine-adapted handler
// runs only while the scheduler waits for it), and sharded sweep workers
// only read it, staging their side effects per shard for the round barrier
// to merge (see shard.go).
type engine struct {
	g         graphLike
	model     Model
	bandwidth int
	maxRounds int
	cutA      *bitset.Set
	// ctx cancels the run at the next round barrier; nil means no
	// cancellation (checked via ctxErr, one poll per round).
	ctx context.Context

	stats Stats

	// firstErr is the run's first node failure in id order.
	firstErr error

	// Scheduling: stamp is the current round's duplicate-send guard value
	// (round index + 1, never zero); senders lists the nodes that queued
	// messages this round (ascending, because the sweep runs in id order)
	// and receivers the nodes whose inboxes are non-empty, so delivery cost
	// scales with actual traffic instead of n.
	stamp     int
	senders   []int
	receivers []int

	// Sharded scheduling (see shard.go): shards is the worker count
	// for the per-round node sweep (≤ 1 means sequential), shardStates the
	// per-shard staging buffers, and nodeSlab every Node by id (one
	// allocation instead of n).
	shards      int
	shardStates []shardState
	nodeSlab    []Node

	// Tracing (see internal/obs). tracer is nil when disabled; wantRounds
	// caches tracer.WantRounds() so delivery only pays the per-round
	// accounting when a tracer actually wants round events. seed is kept
	// for the run-start record; seedBase derives the per-node random
	// streams lazily (see Node.Rand).
	tracer     obs.Tracer
	wantRounds bool
	seed       int64
	seedBase   int64

	// Per-round trace accounting, filled by deliverBatch: bits and
	// messages delivered in the last completed round, and (only when
	// wantRounds) the largest single message — which, at one message per
	// directed link per round, is exactly the max single-link bit volume.
	lastBits    int64
	lastMsgs    int64
	lastMaxLink int64

	// Span reference counts: per-node begin/end marks collapse into one
	// network-wide span event on the 0→1 and →0 transitions.
	spans map[spanKey]int
}

// spanKey identifies one open span instance.
type spanKey struct {
	name  string
	index int
}

// spanBegin records one node's span-begin mark, emitting the tracer event
// on the first mark for this (name, index). The emitted mark carries the
// cumulative message count as of the round boundary: marks fire while the
// round's programs run (or, sharded, at the barrier replay) — in both cases
// before that round's delivery updates the counter — so the snapshot is the
// traffic delivered before the mark's round, at any shard count.
func (e *engine) spanBegin(name string, index, round int) {
	if e.spans == nil {
		e.spans = make(map[spanKey]int)
	}
	k := spanKey{name, index}
	refs := e.spans[k]
	e.spans[k] = refs + 1
	if refs == 0 {
		e.tracer.SpanBegin(obs.Span{Name: name, Index: index, Round: round, Msgs: e.stats.Messages})
	}
}

// spanEnd records one node's span-end mark, emitting the tracer event when
// the last mark is withdrawn. Ends without a matching open span are ignored
// so termination paths can close spans unconditionally.
func (e *engine) spanEnd(name string, index, round int) {
	k := spanKey{name, index}
	refs := e.spans[k]
	if refs == 0 {
		return
	}
	if refs == 1 {
		delete(e.spans, k)
		e.tracer.SpanEnd(obs.Span{Name: name, Index: index, Round: round, Msgs: e.stats.Messages})
		return
	}
	e.spans[k] = refs - 1
}

// traceRunStart emits the run-start event, if a tracer is attached.
func (e *engine) traceRunStart() {
	if e.tracer == nil {
		return
	}
	e.tracer.RunStart(obs.RunInfo{
		N:         e.g.N(),
		Model:     e.model.String(),
		Engine:    "batch",
		Bandwidth: e.bandwidth,
		MaxRounds: e.maxRounds,
		Seed:      e.seed,
	})
}

// traceRound emits the per-round cost event for the round just delivered.
func (e *engine) traceRound(round, active int) {
	if !e.wantRounds {
		return
	}
	e.tracer.Round(obs.RoundEvent{
		Round:    round,
		Active:   active,
		Messages: e.lastMsgs,
		Bits:     e.lastBits,
		MaxLink:  e.lastMaxLink,
	})
}

// traceRunEnd emits the run-end event with the final aggregates.
func (e *engine) traceRunEnd(err error) {
	if e.tracer == nil {
		return
	}
	ev := obs.RunEnd{
		Rounds:           e.stats.Rounds,
		Messages:         e.stats.Messages,
		TotalBits:        e.stats.TotalBits,
		MaxRoundBits:     e.stats.MaxRoundBits,
		MaxRoundMessages: e.stats.MaxRoundMessages,
	}
	if err != nil {
		ev.Error = err.Error()
	}
	e.tracer.RunEnd(ev)
}

// graphLike is the slice of the graph API the engine needs; it exists so
// the engine never mutates the shared graph.
type graphLike interface {
	N() int
	Degree(v int) int
	Adj(v int) []int
	HasEdge(u, v int) bool
	Weight(v int) int64
}

// ctxErr polls the run's context without blocking: nil while the run may
// continue, an error wrapping ErrCanceled and the context's cause once it is
// done. Every round loop calls it at the same position — right after the
// MaxRounds check at the top of each round iteration — so both drivers abort
// at the same granularity: a clean round boundary.
func (e *engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("%w (%w)", ErrCanceled, context.Cause(e.ctx))
	default:
		return nil
	}
}

func (e *engine) setErr(err error) {
	if e.firstErr == nil {
		e.firstErr = err
	}
}

// nodeErr records a node failure. On a sharded sweep it is staged in
// the node's shard (each shard keeps its first error, i.e. its lowest-id
// failing node, because the in-shard sweep is sequential in id order); the
// barrier then adopts the lowest shard's error, reproducing exactly the
// "first error in id order" the sequential sweep records. Everywhere else
// it goes straight to the engine.
func (e *engine) nodeErr(nd *Node, err error) {
	if sh := nd.sh; sh != nil {
		if sh.err == nil {
			sh.err = err
		}
		return
	}
	e.setErr(err)
}

// newEngine validates cfg and builds the engine plus its nodes. It does not
// special-case the empty graph — each Run entry point returns an empty
// Result for n == 0 before driving the engine.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	bwf := cfg.BandwidthFactor
	if bwf == 0 {
		bwf = 4
	}
	if bwf < 1 {
		return nil, fmt.Errorf("congest: bandwidth factor %d < 1", bwf)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 22
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("congest: negative shard count %d", cfg.Shards)
	}
	n := cfg.Graph.N()
	// Shard counts above n are allowed and simply leave some shards with
	// empty node ranges; the sharded driver's merge handles them like any
	// other shard (the stress suite runs such configurations on purpose).
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	eng := &engine{
		g:         cfg.Graph,
		model:     cfg.Model,
		bandwidth: bwf * IDBits(n),
		maxRounds: maxRounds,
		cutA:      cfg.CutA,
		ctx:       cfg.Ctx,
		shards:    shards,
		tracer:    cfg.Tracer,
		seed:      cfg.Seed,
		seedBase:  cfg.Seed * 1_000_003,
	}
	if cfg.Tracer != nil {
		eng.wantRounds = cfg.Tracer.WantRounds()
	}
	eng.stats.Bandwidth = eng.bandwidth
	// At most every node sends and receives in a round.
	eng.senders = make([]int, 0, n)
	eng.receivers = make([]int, 0, n)
	// One slab allocation for all node state; per-node duplicate-send
	// guards and random streams are created lazily so a million-node run
	// pays only for what its algorithm uses.
	eng.nodeSlab = make([]Node, n)
	for i := range eng.nodeSlab {
		eng.nodeSlab[i].id = i
		eng.nodeSlab[i].eng = eng
	}
	return eng, nil
}

// Run executes handler on every node of cfg.Graph under the configured
// model and returns each node's output plus run statistics. Outputs[i] is
// node i's return value. Each handler runs as a coroutine the scheduler
// resumes once per round; NextRound is its yield point.
//
// The first error — from a handler, a MustSend violation, or the round
// limit — aborts the run and is returned. Runs are deterministic for a
// fixed Config (including Seed): nodes interact only at the round barrier,
// and every node's randomness comes from its private stream.
func Run[T any](cfg Config, handler Handler[T]) (*Result[T], error) {
	adapterRuns.Add(1)
	return run(cfg, func(eng *engine, nd *Node, outputs []T) stepper {
		return &coroStepper[T]{eng: eng, nd: nd, handler: handler, outputs: outputs}
	})
}

// RunProgram executes a step-structured algorithm: newProgram is called once
// per node (in id order, before round 0) and the resulting program's Step
// runs once per round as a plain method call — no goroutines, channels, or
// barriers anywhere in the round loop. It produces the same results as Run
// with the equivalent blocking handler.
func RunProgram[T any](cfg Config, newProgram func(nd *Node) StepProgram[T]) (*Result[T], error) {
	return run(cfg, func(eng *engine, nd *Node, outputs []T) stepper {
		return &progStepper[T]{eng: eng, nd: nd, prog: newProgram(nd), outputs: outputs}
	})
}

// run builds the engine, one stepper per node (in id order), and drives
// the round loop to completion.
func run[T any](cfg Config, newStepper func(eng *engine, nd *Node, outputs []T) stepper) (*Result[T], error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if n == 0 {
		return &Result[T]{}, nil
	}
	outputs := make([]T, n)
	steppers := make([]stepper, n)
	for i := range steppers {
		steppers[i] = newStepper(eng, &eng.nodeSlab[i], outputs)
	}
	if err := eng.runBatchToCompletion(steppers); err != nil {
		return nil, err
	}
	return &Result[T]{Outputs: outputs, Stats: eng.stats}, nil
}
