package core

import (
	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// Gʳ Phase II: the parametric generalization of Lemma 2/3's gather.
//
// For r = 2 the algorithms keep the paper's exact wire format: every node
// reports its live neighbors as F-edges and the leader squares the union
// (Lemma 3). That reconstruction is a G²-specific trick — a G-path of
// length ≤ 2 between U-vertices has both edges incident to U, so F suffices.
// For general r a shortest ≤ r path between U-vertices may route through
// vertices far from U, but every edge of such a path has an endpoint within
// d = ⌊(r-1)/2⌋ hops of U. The generalized gather therefore
//
//  1. labels the near-U region — by default with the layered
//     StepSparsify flood (truncated U-distance layers in exactly
//     primitives.SparsifyRounds(r) communication rounds; silent at
//     r ≤ 4 where the seeded 1-ball already resolves the
//     certificates), or under GatherLegacy with the one-bit
//     StepNearFlood (membership only, max(0, d-1) slices),
//  2. has every near node report incident G-edges — only its certificate
//     subset under the sparsified default (each edge that can lie on a
//     ≤ r-hop U-to-U path, shipped once by a designated endpoint; see
//     primitives/sparsify.go), or all of them under GatherLegacy — and
//     every U-member a self-pair marking membership, and
//  3. lets the leader rebuild the subgraph, take its r-th power, and induce
//     on U — which equals Gʳ[U] exactly under either mode, because the
//     reported edges contain a witness for every ≤ r U-to-U path and
//     nothing that is not a real G-edge.
//
// The |F| = O(n/ε) bound of Lemma 2 is G²-specific; the legacy gather ships
// O(m) items in the worst case. The sparsified certificate stream is
// duplicate-free and drops every edge no ≤ r-hop U-to-U path can use, which
// is what makes the r ∈ {3,4} sweeps of specs/sparsify-sweep.json tractable
// (BENCH_sparsify.json prices both modes). Correctness and the (1+ε)
// charging argument are power-independent: Phase I only ever commits 1-hop
// neighborhoods, which are cliques of every Gʳ with r ≥ 2.

// GatherMode selects how the generalized Phase II (power ≠ 2) collects the
// near-U subgraph; the paper's r = 2 F-edge path is unaffected by it.
type GatherMode int

const (
	// GatherSparsified is the default: the StepSparsify labeled flood plus
	// per-node certificate edge selection — bounded label rounds, each
	// surviving edge shipped exactly once.
	GatherSparsified GatherMode = iota
	// GatherLegacy pins the PR-4 wire format — one-bit near flood, every
	// near node reporting all incident edges — for differential runs
	// (harness jobs with gather "legacy" replay the identical instance).
	GatherLegacy
)

// nearRadius returns d = ⌊(r-1)/2⌋, the distance from U within which a node
// must report its edges for the leader to reconstruct Gʳ[U].
func nearRadius(r int) int { return (r - 1) / 2 }

// powerGather is the near-U labeling stage of the generalized Phase II.
// After the final U-status exchange every node knows whether it is in U and
// which neighbors are, so distance ≤ 1 is seeded for free; the flood grows
// (legacy) or layers (sparsified) the rest.
type powerGather struct {
	mode    GatherMode
	flood   *primitives.StepNearFlood // legacy
	sp      *primitives.StepSparsify  // sparsified
	started bool
}

// newPowerGather starts the near-U stage at this node; inU and uNbrs come
// from Phase I's final status exchange.
func newPowerGather(r int, inU bool, uNbrs []int, mode GatherMode) *powerGather {
	if mode == GatherSparsified {
		return &powerGather{mode: mode, sp: primitives.NewStepSparsify(r, inU, uNbrs)}
	}
	d := nearRadius(r)
	start := inU
	hops := 0
	if d >= 1 {
		start = inU || len(uNbrs) > 0
		hops = d - 1
	}
	return &powerGather{mode: mode, flood: primitives.NewStepNearFlood(start, hops)}
}

// Step advances one round-slice; done when the near region is labeled.
func (pg *powerGather) Step(nd *congest.Node) bool {
	first := !pg.started
	pg.started = true
	var done bool
	if pg.sp != nil {
		done = pg.sp.Step(nd)
		// The sparsified stage spends SparsifyRounds(r)+1 ≥ 2 handler
		// activations at every r, so begin and end always land in distinct
		// activations and the span covers exactly SparsifyRounds(r) rounds.
		if first {
			nd.SpanBegin("phase2-sparsify", 0)
		}
		if done {
			nd.SpanEnd("phase2-sparsify", 0)
		}
		return done
	}
	done = pg.flood.Step(nd)
	// The span is emitted only when the stage actually spends rounds. A
	// zero-hop flood (r ≤ 2) would begin and end within one step and spend
	// no rounds, so the degenerate case emits nothing at all (the span
	// summaries pinned by the golden fixtures rely on it).
	if first && !done {
		nd.SpanBegin("phase2-near", 0)
	}
	if !first && done {
		nd.SpanEnd("phase2-near", 0)
	}
	return done
}

// Near reports whether this node must contribute edges; valid once done.
// Both modes agree on the set (distance ≤ d from U).
func (pg *powerGather) Near() bool {
	if pg.sp != nil {
		return pg.sp.Near()
	}
	return pg.flood.Near()
}

// EdgeNbrs returns the neighbors whose edges this node reports: the
// deterministic certificate subset under the sparsified default, every
// neighbor under GatherLegacy (nil when the node is not near). Valid once
// done.
func (pg *powerGather) EdgeNbrs(nd *congest.Node) []int {
	if pg.sp != nil {
		return pg.sp.Certificate(nd)
	}
	if !pg.flood.Near() {
		return nil
	}
	return nd.Neighbors()
}

// powerEdgeItems encodes a node's generalized Phase-II contribution: near
// nodes report their gather-selected incident G-edges as (id, u) pairs, and
// U-members add an (id, id) self-pair marking membership (edges alone must
// not imply membership — a relay's edges name vertices outside U). Under
// GatherLegacy duplicate reports from two near endpoints are deduped at the
// leader; the sparsified certificate ships almost every edge once (only the
// r = 4 blind keep can name a shell-internal edge from both ends).
func powerEdgeItems(nd *congest.Node, pg *powerGather, inU bool) []congest.Message {
	nbrs := pg.EdgeNbrs(nd)
	if len(nbrs) == 0 && !inU {
		return nil
	}
	items := make([]congest.Message, 0, len(nbrs)+1)
	for _, u := range nbrs {
		items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(u)))
	}
	if inU {
		items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(nd.ID())))
	}
	return items
}

// leaderSolvePowerRemainder rebuilds Gʳ[U] from the generalized gather —
// self-pairs mark U-membership, other pairs are G-edges — and returns the
// configured solver's cover of it, in original ids. With the default
// kernelize-then-solve solver (internal/kernel) the reconstructed instance
// is reduced to its hard core before any branching, which is what lets the
// leader absorb essentially-all-of-Gʳ gathers on sparse thousand-node runs.
func leaderSolvePowerRemainder(n, r int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	b := graph.NewBuilder(n)
	for _, m := range gathered {
		p := m.(congest.Pair)
		if p.A == p.B {
			u.Add(int(p.A))
			continue
		}
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err) // malformed item: an engine/protocol bug, not user input
		}
	}
	return solvePowerInduced(n, r, b, u, solver)
}

// solvePowerInduced is the shared tail of the generalized leader solves:
// power the reported subgraph, induce on U, solve, and translate the cover
// back to original ids.
func solvePowerInduced(n, r int, b *graph.Builder, u *bitset.Set, solver LocalSolver) *bitset.Set {
	h, orig := b.Build().Power(r).InducedSubgraph(u)
	local := solver(h)
	out := bitset.New(n)
	local.ForEach(func(i int) bool {
		out.Add(orig[i])
		return true
	})
	return out
}

// leaderSolveWeightedPowerRemainder is the weighted form: weight reports
// mark U-membership (every live vertex sends one), edge reports carry no
// membership information.
func leaderSolveWeightedPowerRemainder(n, r int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	weights := make(map[int]int64)
	b := graph.NewBuilder(n)
	for _, m := range gathered {
		p := m.(edgeOrWeight)
		if p.IsWeight {
			u.Add(int(p.A))
			weights[int(p.A)] = p.B
			continue
		}
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err)
		}
	}
	for v, w := range weights {
		b.SetWeight(v, w)
	}
	return solvePowerInduced(n, r, b, u, solver)
}
