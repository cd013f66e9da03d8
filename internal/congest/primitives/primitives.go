// Package primitives provides the reusable distributed building blocks the
// paper's CONGEST algorithms are assembled from: leader election, BFS tree
// construction, convergecast aggregation, root broadcast, pipelined gather
// of arbitrary item streams at a root (the "leader learns F" step of
// Lemma 2), and 2-hop maxima (the Phase-I symmetry breaking of Theorem 1).
//
// Every function here is a collective operation: it must be called by every
// node of the network in the same round, with consistent arguments, and it
// consumes the same number of rounds at every node (round counts depend
// only on n and on values made common knowledge beforehand). This lockstep
// contract is what keeps the barrier-synchronized simulation deadlock-free.
//
// All primitives communicate strictly over G-edges (Node.BroadcastNeighbors
// and explicit neighbor sends, never Node.Broadcast), so they keep their
// G-structure semantics even when the network runs in CONGESTED CLIQUE
// mode.
//
// Each blocking primitive has a step-form twin in step.go (StepMinIDLeader,
// StepBFSTree, …) for use inside congest.StepProgram implementations; the
// two forms send byte-identical messages in identical rounds.
package primitives

import (
	"fmt"

	"powergraph/internal/congest"
)

// Tree is a node-local view of a rooted spanning tree.
type Tree struct {
	Root     int
	Parent   int // -1 at the root
	Depth    int // distance from the root
	Children []int
}

// MinIDLeader floods the minimum id through the network and returns it; on
// a connected graph every node returns the same leader after exactly n
// rounds (n ≥ diameter+1 guarantees quiescence).
// Rounds consumed: n. Message size: one id.
func MinIDLeader(nd *congest.Node) int {
	n := nd.N()
	w := congest.IDBits(n)
	best := int64(nd.ID())
	for r := 0; r < n; r++ {
		nd.BroadcastNeighbors(congest.NewIntWidth(best, w))
		nd.NextRound()
		for _, in := range nd.Recv() {
			if v := in.Msg.Int(); v < best {
				best = v
			}
		}
	}
	return int(best)
}

// BFSTree builds a BFS spanning tree rooted at root and returns each node's
// local view: depths equal BFS distances in G, and every parent is a
// G-neighbor one level closer to the root (ties toward the smallest id).
// The graph must be connected. Rounds consumed: n+1.
func BFSTree(nd *congest.Node, root int) Tree {
	n := nd.N()
	t := Tree{Root: root, Parent: -1, Depth: -1}
	joined := nd.ID() == root
	if joined {
		t.Depth = 0
	}
	announce := joined // send the join wave this round?
	for r := 0; r < n; r++ {
		if announce {
			nd.BroadcastNeighbors(congest.Flag())
			announce = false
		}
		nd.NextRound()
		if !joined {
			for _, in := range nd.Recv() {
				// First wave to arrive: sender is at depth r, we join at r+1.
				// Inbox is sorted by sender, so the first is the minimum id.
				t.Parent = in.From
				t.Depth = r + 1
				joined = true
				announce = true
				break
			}
		}
	}
	// Child notification round.
	if t.Parent != -1 {
		nd.MustSend(t.Parent, congest.Flag())
	}
	nd.NextRound()
	for _, in := range nd.Recv() {
		t.Children = append(t.Children, in.From)
	}
	return t
}

// ConvergecastSum aggregates the sum of every node's value at the root of
// the tree; the root returns the total, every other node returns 0.
// Values must be non-negative and small enough that the global sum fits in
// the bandwidth budget.
// Rounds consumed: n.
func ConvergecastSum(nd *congest.Node, t Tree, value int64) int64 {
	pending := len(t.Children)
	acc := value
	sent := false
	for r := 0; r < nd.N(); r++ {
		if !sent && pending == 0 && t.Parent != -1 {
			nd.MustSend(t.Parent, congest.NewInt(acc))
			sent = true
		}
		nd.NextRound()
		for _, in := range nd.Recv() {
			if in.Msg.Kind() == congest.KindInt && contains(t.Children, in.From) {
				acc += in.Msg.Int()
				pending--
			}
		}
	}
	if t.Parent == -1 {
		return acc
	}
	return 0
}

// BroadcastFromRoot floods a value from the tree's root to every node; all
// nodes return it.
// Rounds consumed: n.
func BroadcastFromRoot(nd *congest.Node, t Tree, value int64) int64 {
	var have bool
	var v int64
	if t.Parent == -1 {
		have, v = true, value
	}
	relay := have
	for r := 0; r < nd.N(); r++ {
		if relay {
			for _, c := range t.Children {
				nd.MustSend(c, congest.NewInt(v))
			}
			relay = false
		}
		nd.NextRound()
		if !have {
			if m, ok := nd.RecvFrom(t.Parent); ok {
				v = m.Int()
				have = true
				relay = true
			}
		}
	}
	return v
}

// GatherAtRoot pipelines every node's items up the tree to the root, which
// returns the concatenation of all items (in arbitrary but deterministic
// order); other nodes return nil. Each item must individually fit in the
// bandwidth budget. This is the pipelined upward gather of Lemma 2: with c
// items per node it takes O(c·n) rounds.
//
// Rounds consumed: 2n + T where T = total item count (made common
// knowledge via an internal convergecast + broadcast).
func GatherAtRoot(nd *congest.Node, t Tree, items []congest.Message) []congest.Message {
	for i, it := range items {
		if it.Bits() > nd.Bandwidth() {
			panicCollective(fmt.Sprintf("primitives: item %d of node %d has %d bits > budget %d",
				i, nd.ID(), it.Bits(), nd.Bandwidth()))
		}
	}
	total := ConvergecastSum(nd, t, int64(len(items)))
	total = BroadcastFromRoot(nd, t, total)

	queue := make([]congest.Message, len(items))
	copy(queue, items)
	var collected []congest.Message
	rounds := int(total) + nd.N()
	for r := 0; r < rounds; r++ {
		if len(queue) > 0 && t.Parent != -1 {
			nd.MustSend(t.Parent, queue[0])
			queue = queue[1:]
		}
		nd.NextRound()
		for _, in := range nd.Recv() {
			if contains(t.Children, in.From) {
				if t.Parent == -1 {
					collected = append(collected, in.Msg)
				} else {
					queue = append(queue, in.Msg)
				}
			}
		}
	}
	if t.Parent == -1 {
		collected = append(collected, items...)
		return collected
	}
	return nil
}

// FloodItemsFromRoot pipelines the root's items down the tree; every node
// returns the full item list in the root's order. Non-root callers pass
// nil items (their argument is ignored). Each item must fit the bandwidth
// budget. This implements the "solution can be distributed to all nodes in
// O(n) rounds" step of Theorem 1's Phase II.
//
// Rounds consumed: 2n + T where T is the root's item count.
func FloodItemsFromRoot(nd *congest.Node, t Tree, items []congest.Message) []congest.Message {
	var total int64
	if t.Parent == -1 {
		total = int64(len(items))
	}
	total = ConvergecastSum(nd, t, total)
	total = BroadcastFromRoot(nd, t, total)

	var queue []congest.Message
	var got []congest.Message
	if t.Parent == -1 {
		queue = append(queue, items...)
		got = append(got, items...)
	}
	sendIdx := 0 // next queue index to forward to children
	rounds := int(total) + nd.N()
	for r := 0; r < rounds; r++ {
		if sendIdx < len(queue) {
			for _, c := range t.Children {
				nd.MustSend(c, queue[sendIdx])
			}
			sendIdx++
		}
		nd.NextRound()
		if t.Parent != -1 {
			if m, ok := nd.RecvFrom(t.Parent); ok {
				queue = append(queue, m)
				got = append(got, m)
			}
		}
	}
	return got
}

// TwoHopMax returns the maximum of value over the closed 2-hop neighborhood
// of this node (self, neighbors, and neighbors' neighbors). It implements
// the "maximum ID in its two hop neighborhood" test of Theorem 1's Phase I.
// Values must be non-negative.
// Rounds consumed: 2.
func TwoHopMax(nd *congest.Node, value int64) int64 {
	nd.BroadcastNeighbors(congest.NewInt(value))
	nd.NextRound()
	m1 := value
	for _, in := range nd.Recv() {
		if v := in.Msg.Int(); v > m1 {
			m1 = v
		}
	}
	nd.BroadcastNeighbors(congest.NewInt(m1))
	nd.NextRound()
	m2 := m1
	for _, in := range nd.Recv() {
		if v := in.Msg.Int(); v > m2 {
			m2 = v
		}
	}
	return m2
}

// Idle consumes the given number of rounds without sending anything, so a
// node can stay in lockstep with peers executing a fixed-round primitive it
// does not participate in.
func Idle(nd *congest.Node, rounds int) {
	for i := 0; i < rounds; i++ {
		nd.NextRound()
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// panicCollective aborts the run through the handler-panic path (recovered
// by the engine and surfaced as an error from congest.Run).
func panicCollective(msg string) {
	panic(msg)
}
