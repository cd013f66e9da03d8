// Package congest simulates the synchronous CONGEST and CONGESTED CLIQUE
// models of distributed computing ([Pel00], [LPPP03]; footnotes 1–2 of the
// paper).
//
// A network is built from a communication graph G. Every node runs its
// algorithm against a Node handle; rounds are barrier synchronized. In each
// round a node may send at most one message per communication link — to each
// G-neighbor in CONGEST, to every other node in CONGESTED CLIQUE — and every
// message is accounted in bits and checked against the bandwidth budget
// B = BandwidthFactor·⌈log₂ n⌉, which is the "O(log n)-bit messages"
// constraint the paper's round bounds rely on. Messages sent in round r are
// delivered at the start of round r+1.
//
// The simulator reports rounds, message count, total bits, and (optionally)
// the bits crossing a vertex cut — the quantity bounded by the Alice–Bob
// framework of Section 5.1.
//
// # Engine
//
// One engine drives every run: a scheduler advances all nodes round by
// round, in id order, over flat per-round message buffers that are reused
// across rounds, so steady-state rounds allocate almost nothing and
// thousand-node sweeps are practical. Step-structured programs (see
// RunProgram) run as plain function calls with no per-node scheduling at
// all; blocking handlers (see Run) are adapted transparently, each node
// becoming a coroutine the scheduler resumes once per round.
//
// Config.Shards splits the per-round node sweep across a persistent worker
// pool (see shard.go). Side effects are staged per shard and merged at the
// round barrier in id order, so outputs, Stats and trace streams are
// byte-identical at any shard count.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// Model selects the communication rule.
type Model int

const (
	// CONGEST allows one B-bit message per incident G-edge per round.
	CONGEST Model = iota
	// CongestedClique allows one B-bit message to every other node per round.
	CongestedClique
)

func (m Model) String() string {
	switch m {
	case CONGEST:
		return "CONGEST"
	case CongestedClique:
		return "CONGESTED-CLIQUE"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Message is any payload with an explicit size in bits. Implementations
// declare the size their fields would need on a real link; the simulator
// enforces the per-round budget against it.
type Message interface {
	Bits() int
}

// Incoming pairs a delivered message with its sender.
type Incoming struct {
	From int
	Msg  Message
}

// Config describes a simulation.
type Config struct {
	Graph *graph.Graph
	Model Model
	// Ctx, when non-nil, cancels an in-flight run: the engine checks it at
	// every round barrier and abort with an error wrapping ErrCanceled (and
	// the context's cause) as soon as it is done. nil means never canceled.
	// This is what lets a server impose per-request deadlines on simulations
	// that would otherwise run a 10⁶-node job to completion.
	Ctx context.Context
	// BandwidthFactor scales the per-message budget B =
	// BandwidthFactor·⌈log₂ n⌉ bits. Zero means the default of 4, enough
	// for a constant number of IDs/weights per message as the paper's
	// algorithms assume.
	BandwidthFactor int
	// MaxRounds aborts runaway algorithms. Zero means the default 1<<22.
	MaxRounds int
	// Shards splits the per-round node sweep into that many contiguous
	// node-id ranges advanced by a persistent worker pool, with per-shard
	// staging buffers merged at the round barrier so results, Stats, and
	// span summaries are byte-identical to the sequential sweep at any shard
	// count (see shard.go). Values ≤ 1 mean the sequential sweep. Negative
	// values are rejected.
	Shards int
	// Seed derives every node's private random stream; runs are
	// deterministic given a seed.
	Seed int64
	// CutA, when non-nil, is a vertex set A: the simulator separately
	// counts the bits of messages crossing between A and V∖A (the cut
	// traffic of Section 5.1's two-party reductions).
	CutA *bitset.Set
	// Tracer, when non-nil, receives run/round/span events (see
	// internal/obs). nil disables tracing; the hot path then pays one
	// branch per event site and allocates nothing. Per-round events are
	// only emitted when Tracer.WantRounds() reports true at run start.
	Tracer obs.Tracer
}

// Stats aggregates the observable cost of a run.
type Stats struct {
	Rounds      int   // number of completed communication rounds
	Messages    int64 // total messages delivered
	TotalBits   int64 // total bits delivered
	CutBits     int64 // bits crossing the configured cut (0 if no cut set)
	CutMessages int64 // messages crossing the configured cut
	Bandwidth   int   // the enforced per-message budget B in bits
	// MaxRoundBits is the largest number of bits delivered in any single
	// round — the network-wide congestion peak. Algorithms that pipeline
	// (Lemma 2) keep it near m·B; bursty ones spike it.
	MaxRoundBits int64
	// MaxRoundMessages is the largest number of messages in any round.
	MaxRoundMessages int64
}

// Result carries per-node outputs and the run statistics.
type Result[T any] struct {
	Outputs []T
	Stats   Stats
}

// Handler is a node program in blocking form: it communicates via the Node
// handle, calls NextRound to cross round boundaries, and returns the node's
// output. The engine adapts handlers transparently into per-round coroutine
// steps. Handlers are the reference shape the step programs are tested
// against.
type Handler[T any] func(*Node) (T, error)

// StepProgram is a node program in explicit step form: the engine calls
// Step once per round, so each node's per-round logic runs as a plain
// function call with no goroutine or channel in the loop. This is the
// engine's native (fastest) shape.
//
// Step sees the messages delivered this round via nd.Recv and queues sends
// for the next round; returning done = true finishes the node (messages it
// queued in that final step are still delivered, exactly as for a handler
// that sends and returns).
type StepProgram[T any] interface {
	// Step runs this node's logic for the current round.
	Step(nd *Node) (done bool, err error)
	// Output returns the node's final output; the engine calls it once,
	// after Step reports done.
	Output() T
}

// ErrMaxRounds reports that the round limit was hit before termination.
var ErrMaxRounds = errors.New("congest: exceeded maximum round count")

// ErrCanceled reports that Config.Ctx was done before the run terminated.
// The returned error also wraps the context's cause, so errors.Is matches
// both ErrCanceled and e.g. context.DeadlineExceeded.
var ErrCanceled = errors.New("congest: run canceled")

// IDBits returns the number of bits needed to address n distinct ids —
// the unit "O(log n)" in all of the paper's message-size accounting.
func IDBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// nodePanic is the sentinel carried by internal panics that abort a node
// program; it never escapes the package.
type nodePanic struct{ err error }

// Node is the handle a node program uses to interact with the simulation.
// A Node must only be used from inside its program: the handler's coroutine,
// or Step.
type Node struct {
	id  int
	eng *engine
	// rng is created lazily on the first Rand call: a rand.Source carries a
	// multi-kilobyte state vector, so eagerly seeding every node costs
	// gigabytes at n ≈ 10⁶ while deterministic algorithms never draw at all.
	rng   *rand.Rand
	inbox []Incoming
	round int

	// sh points at this node's shard staging buffers during a sharded
	// round sweep (see shard.go); nil on the sequential sweep.
	sh *shardState

	// Send buffers: flat parallel (destination, message) slices truncated
	// and reused across rounds, with a round-stamped map for duplicate-send
	// detection.
	// Broadcasts take a fast path that skips the per-destination checks
	// (destinations are valid and duplicate-free by construction) and
	// record themselves in the round-stamped bcastAll/bcastNbrs guards so
	// later explicit sends still detect duplicates.
	outDst    []int
	outMsgs   []Message
	sentRound map[int]int
	bcastAll  int
	bcastNbrs int

	// yield parks this node's coroutine until the scheduler resumes it for
	// the next round; set by the coroutine adapter, nil for step
	// programs (which never call NextRound).
	yield func(struct{}) bool
}

// ID returns this node's identifier (0…n-1). The paper's algorithms use ids
// for symmetry breaking; uniqueness is all that is required.
func (nd *Node) ID() int { return nd.id }

// N returns the number of nodes in the network (global knowledge, as is
// standard in CONGEST).
func (nd *Node) N() int { return nd.eng.g.N() }

// Round returns the current round number, starting from 0.
func (nd *Node) Round() int { return nd.round }

// Bandwidth returns the per-message budget B in bits.
func (nd *Node) Bandwidth() int { return nd.eng.bandwidth }

// Degree returns this node's degree in the input graph G.
func (nd *Node) Degree() int { return nd.eng.g.Degree(nd.id) }

// Neighbors returns this node's G-neighbors as a shared, sorted, read-only
// slice (the knowledge a CONGEST node starts with).
func (nd *Node) Neighbors() []int { return nd.eng.g.Adj(nd.id) }

// Weight returns this node's input weight (1 on unweighted graphs).
func (nd *Node) Weight() int64 { return nd.eng.g.Weight(nd.id) }

// Rand returns this node's private deterministic random stream (created on
// first use; the stream depends only on Config.Seed and the node id, never
// on the shard count).
func (nd *Node) Rand() *rand.Rand {
	if nd.rng == nil {
		nd.rng = rand.New(rand.NewSource(nd.eng.seedBase + int64(nd.id) + 1))
	}
	return nd.rng
}

// Send queues a B-bit-bounded message to the given destination for delivery
// next round. It returns an error if the destination is not reachable under
// the model, if a message was already queued to it this round, or if the
// message exceeds the bandwidth budget.
func (nd *Node) Send(to int, m Message) error {
	if err := nd.sendCheck(to, m); err != nil {
		return err
	}
	if nd.sentRound == nil {
		nd.sentRound = make(map[int]int, 8)
	}
	nd.sentRound[to] = nd.eng.stamp
	nd.queue(to, m)
	return nil
}

// queue appends one message to the outbox, registering this node as a
// sender for the current round on its first send.
func (nd *Node) queue(to int, m Message) {
	if len(nd.outDst) == 0 {
		nd.registerSender()
	}
	nd.outDst = append(nd.outDst, to)
	nd.outMsgs = append(nd.outMsgs, m)
}

// registerSender records this node in the current round's sender list: the
// engine-wide list on the sequential sweep, the shard-local staging list on
// a sharded sweep (concatenated in shard order at the barrier, which is
// ascending id order — exactly the sequential sweep's order).
func (nd *Node) registerSender() {
	if sh := nd.sh; sh != nil {
		sh.senders = append(sh.senders, nd.id)
		return
	}
	nd.eng.senders = append(nd.eng.senders, nd.id)
}

func (nd *Node) sendCheck(to int, m Message) error {
	if to < 0 || to >= nd.eng.g.N() || to == nd.id {
		return fmt.Errorf("congest: node %d: invalid destination %d", nd.id, to)
	}
	if nd.eng.model == CONGEST && !nd.eng.g.HasEdge(nd.id, to) {
		return fmt.Errorf("congest: node %d: %d is not a neighbor", nd.id, to)
	}
	if nd.sentRound[to] == nd.eng.stamp || nd.bcastAll == nd.eng.stamp ||
		(nd.bcastNbrs == nd.eng.stamp && nd.eng.g.HasEdge(nd.id, to)) {
		return fmt.Errorf("congest: node %d: second message to %d in round %d", nd.id, to, nd.round)
	}
	if b := m.Bits(); b > nd.eng.bandwidth {
		return fmt.Errorf("congest: node %d: message of %d bits exceeds budget %d", nd.id, b, nd.eng.bandwidth)
	}
	return nil
}

// MustSend is Send for messages that are correct by construction; a failure
// aborts the whole simulation with the underlying error (it is converted to
// an error return of Run, never a caller-visible panic).
func (nd *Node) MustSend(to int, m Message) {
	if err := nd.Send(to, m); err != nil {
		panic(nodePanic{err})
	}
}

// Broadcast sends m to every neighbor (CONGEST) or every other node
// (CONGESTED CLIQUE).
func (nd *Node) Broadcast(m Message) {
	if nd.eng.model == CongestedClique {
		if len(nd.outDst) == 0 {
			nd.fastBroadcast(m, nil)
			return
		}
		for to := 0; to < nd.eng.g.N(); to++ {
			if to != nd.id {
				nd.MustSend(to, m)
			}
		}
		return
	}
	nd.BroadcastNeighbors(m)
}

// BroadcastNeighbors sends m to every G-neighbor regardless of model: the
// building block of protocols that keep their G-structure semantics even
// when the network runs in CONGESTED CLIQUE mode (all of
// congest/primitives does).
func (nd *Node) BroadcastNeighbors(m Message) {
	if len(nd.outDst) == 0 {
		nd.fastBroadcast(m, nd.eng.g.Adj(nd.id))
		return
	}
	for _, to := range nd.Neighbors() {
		nd.MustSend(to, m)
	}
}

// fastBroadcast is the broadcast fast path, valid only when
// nothing was queued yet this round (the caller checked): destinations are
// distinct and reachable by construction, so the per-destination checks
// reduce to one bandwidth test, and the round-stamped guard keeps later
// explicit sends honest about duplicates. adj == nil means "every node but
// this one" (the CONGESTED CLIQUE rule).
func (nd *Node) fastBroadcast(m Message, adj []int) {
	n := nd.eng.g.N()
	count := len(adj)
	if adj == nil {
		count = n - 1
	}
	if count == 0 {
		return
	}
	if b := m.Bits(); b > nd.eng.bandwidth {
		// Same failure MustSend's check reports on the first destination.
		panic(nodePanic{fmt.Errorf("congest: node %d: message of %d bits exceeds budget %d", nd.id, b, nd.eng.bandwidth)})
	}
	nd.registerSender()
	if adj == nil {
		for to := 0; to < n; to++ {
			if to != nd.id {
				nd.outDst = append(nd.outDst, to)
				nd.outMsgs = append(nd.outMsgs, m)
			}
		}
		nd.bcastAll = nd.eng.stamp
		return
	}
	nd.outDst = append(nd.outDst, adj...)
	for range adj {
		nd.outMsgs = append(nd.outMsgs, m)
	}
	nd.bcastNbrs = nd.eng.stamp
}

// SpanBegin marks the start of a named phase span at the current round.
// Spans are network-wide: when every node of a lockstep program calls
// SpanBegin with the same (name, index) at the same round, the tracer sees
// a single begin event (the engine reference-counts per-node marks).
// Repeated spans of the same name (Phase-I iterations, MDS phases) are
// distinguished by index. A nil tracer makes this a single-branch no-op.
func (nd *Node) SpanBegin(name string, index int) {
	if nd.eng.tracer == nil {
		return
	}
	if sh := nd.sh; sh != nil {
		// Sharded sweep: stage the mark shard-locally; the barrier replays
		// marks in shard order (= id order), reproducing the sequential
		// sweep's reference-count transitions and event order.
		sh.marks = append(sh.marks, spanMark{name: name, index: index, round: nd.round})
		return
	}
	nd.eng.spanBegin(name, index, nd.round)
}

// SpanEnd marks the close of a phase span. Spans are half-open round
// intervals [begin, end): ending at the begin round means the span consumed
// no communication rounds. Unmatched ends (no open span with that name and
// index) are silently ignored, so termination paths may call SpanEnd
// unconditionally.
func (nd *Node) SpanEnd(name string, index int) {
	if nd.eng.tracer == nil {
		return
	}
	if sh := nd.sh; sh != nil {
		sh.marks = append(sh.marks, spanMark{name: name, index: index, round: nd.round, end: true})
		return
	}
	nd.eng.spanEnd(name, index, nd.round)
}

// Recv returns the messages delivered at the start of the current round
// (i.e. sent during the previous round), sorted by sender id. The slice is
// shared and must not be modified.
func (nd *Node) Recv() []Incoming { return nd.inbox }

// RecvFrom returns the message delivered this round from the given sender,
// if any.
func (nd *Node) RecvFrom(from int) (Message, bool) {
	for _, in := range nd.inbox {
		if in.From == from {
			return in.Msg, true
		}
	}
	return nil, false
}

// NextRound submits this round's messages and blocks until every node has
// done the same; it then makes the messages sent to this node available via
// Recv. Step programs never call NextRound — returning from Step is the
// round boundary.
func (nd *Node) NextRound() {
	if nd.yield == nil {
		panic(nodePanic{fmt.Errorf("congest: node %d: NextRound called from a StepProgram (returning from Step is the round boundary)", nd.id)})
	}
	// Hand control back to the scheduler; the yield returns when the
	// scheduler resumes this node for the next round, or reports false when
	// the run was aborted while the node was parked.
	if !nd.yield(struct{}{}) {
		panic(nodePanic{errAborted})
	}
	nd.round++
}

var errAborted = errors.New("congest: simulation aborted")
