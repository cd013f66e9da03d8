package kernel_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"powergraph/internal/core"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/kernel"
	"powergraph/internal/verify"
)

// The leader-ceiling regression stress test reproduces the ROADMAP failure
// mode end to end: a sparse instance at n ≥ 500 whose degrees never reach
// the randomized variants' candidacy threshold τ, so Phase I commits nothing
// and the leader receives essentially all of G². The old default solver
// (raw branch and bound) must report budget exhaustion on that instance; the
// kernelize-then-solve ladder must crack it — exactly — under the same node
// budget and a strict wall-clock guard, both standalone and inside the full
// distributed run.

// stressBudget is deliberately small: the legacy solver burns through it in
// well under a second, and the kernel path solves the whole instance without
// spending a single search node on most seeds.
const stressBudget = 25_000

// ceilingInstance is the pinned stress instance: a weighted random tree at
// n = 1000. Weighted tree squares are the sharpest known split between the
// two solvers — the weight-gated dominance rule of the raw search stalls
// while the kernel's pendant weight transfer, weighted folding, and
// Nemhauser–Trotter decomposition collapse the square to a handful of
// vertices.
func ceilingInstance() *graph.Graph {
	g := graph.RandomTree(1000, rand.New(rand.NewSource(1)))
	return graph.WithRandomWeights(g, 16, rand.New(rand.NewSource(101)))
}

func TestLeaderCeilingRegression(t *testing.T) {
	g := ceilingInstance()
	eps := 0.5
	// τ = ⌈8/ε⌉ + 2 = 18 for ε = ½ (mvc-congest-rand and mvc-clique-rand);
	// the instance must sit below it everywhere or it does not reproduce
	// the ceiling regime.
	tau := 18
	if d := g.MaxDegree(); d > tau {
		t.Fatalf("instance max degree %d exceeds τ = %d; not the ceiling regime", d, tau)
	}
	sq := g.Square()

	// The old default: raw branch and bound exhausts the budget.
	if _, err := exact.VertexCoverBounded(sq, stressBudget); !errors.Is(err, exact.ErrBudgetExceeded) {
		t.Fatalf("legacy exact solve was expected to exhaust %d nodes, got err=%v", stressBudget, err)
	}

	// The kernel ladder under the same node budget and a wall-clock guard.
	start := time.Now()
	cover, rep := kernel.NewSolver(kernel.Config{MaxNodes: stressBudget}).VertexCover(sq)
	elapsed := time.Since(start)
	if rep.Path != kernel.PathKernelExact || !rep.Optimal {
		t.Fatalf("kernel solve did not stay exact under the budget: %+v", rep)
	}
	if ok, witness := verify.IsVertexCover(sq, cover); !ok {
		t.Fatalf("kernel cover infeasible (edge %v)", witness)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("kernel solve took %s; the ceiling is not cracked", elapsed)
	}
	optCost := sq.SetWeightOf(cover)
	if rep.Cost != optCost || rep.LowerBound > optCost {
		t.Fatalf("inconsistent report %+v for cost %d", rep, optCost)
	}

	// The full distributed runs with the default (kernel) leader solver.
	//
	// Randomized congest MVC targets cardinality, and its Phase-II wire
	// format carries no weights, so it runs on the unweighted topology:
	// Phase I must commit nothing — that is the failure mode — and Phase
	// II must still land exactly on the (unweighted) optimum.
	unweighted := graph.RandomTree(1000, rand.New(rand.NewSource(1)))
	usq := unweighted.Square()
	uOpt := usq.SetWeightOf(kernel.VertexCover(usq))
	res, err := core.ApproxMVCCongestRandomized(unweighted, eps, &core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseISize != 0 {
		t.Fatalf("Phase I committed %d vertices; τ fired and the regime is wrong", res.PhaseISize)
	}
	if ok, _ := verify.IsVertexCover(usq, res.Solution); !ok {
		t.Fatal("distributed solution is not a G² cover")
	}
	if res.LeaderSolve == nil || res.LeaderSolve.Path != kernel.PathKernelExact {
		t.Fatalf("leader solve did not take the kernel-exact path: %+v", res.LeaderSolve)
	}
	if got := int64(res.Solution.Count()); got != uOpt {
		t.Fatalf("distributed cover size %d differs from the exact optimum %d", got, uOpt)
	}

	// Weighted congest MVC (Theorem 7) ships weights to the leader, so on
	// the weighted instance its exact kernel-backed solve must keep the
	// whole run within (1+ε) of the weighted optimum.
	wres, err := core.ApproxMWVCCongest(g, eps, &core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := verify.IsVertexCover(sq, wres.Solution); !ok {
		t.Fatal("weighted distributed solution is not a G² cover")
	}
	if wres.LeaderSolve == nil || wres.LeaderSolve.Path != kernel.PathKernelExact {
		t.Fatalf("weighted leader solve did not take the kernel-exact path: %+v", wres.LeaderSolve)
	}
	if got := sq.SetWeightOf(wres.Solution); float64(got) > (1+eps)*float64(optCost)+1e-9 {
		t.Fatalf("weighted distributed cost %d exceeds (1+ε)·OPT = %.1f", got, (1+eps)*float64(optCost))
	}
}

// TestLeaderCeilingAcrossSeeds widens the regression over more seeds and
// sizes so the split cannot silently rot into a single lucky instance: the
// kernel must stay sub-second exact while the legacy solver keeps
// exhausting the budget.
func TestLeaderCeilingAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	for seed := int64(2); seed <= 4; seed++ {
		for _, n := range []int{600, 1500} {
			g := graph.WithRandomWeights(graph.RandomTree(n, rand.New(rand.NewSource(seed))),
				16, rand.New(rand.NewSource(seed+100)))
			sq := g.Square()
			if _, err := exact.VertexCoverBounded(sq, stressBudget); !errors.Is(err, exact.ErrBudgetExceeded) {
				t.Errorf("n=%d seed=%d: legacy solve no longer exhausts the budget (err=%v)", n, seed, err)
			}
			cover, rep := kernel.NewSolver(kernel.Config{MaxNodes: stressBudget}).VertexCover(sq)
			if rep.Path != kernel.PathKernelExact {
				t.Errorf("n=%d seed=%d: kernel path %s", n, seed, rep.Path)
			}
			if ok, _ := verify.IsVertexCover(sq, cover); !ok {
				t.Errorf("n=%d seed=%d: infeasible", n, seed)
			}
		}
	}
}
