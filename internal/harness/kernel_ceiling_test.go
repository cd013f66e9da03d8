package harness

import (
	"testing"

	"powergraph/internal/kernel"
)

// The acceptance gate of the kernelize-then-solve subsystem: on a sparse
// random instance at n = 1000 — squarely inside the regime ROADMAP named as
// the scale ceiling, where the randomized variants' candidacy threshold
// never fires and the leader receives essentially all of G² — the
// randomized congest MVC with localSolver "kernel-exact" must complete its
// Phase-II leader solve, and the harness oracle must confirm the reported
// ratio against the true optimum.

// ceilingJob builds the pinned thousand-node job the way Expand would.
func ceilingJob(alg, gen string, maxWeight int64, n int) Job {
	j := Job{
		Generator:   GeneratorSpec{Name: gen, MaxWeight: maxWeight},
		N:           n,
		Power:       2,
		Algorithm:   alg,
		Epsilon:     0.5,
		Trial:       0,
		OracleN:     n,
		LocalSolver: "kernel-exact",
	}
	j.Seed = deriveSeed(41, j.cellKey(), 0)
	j.InstanceSeed = deriveSeed(41, j.instanceKey(), 0)
	return j
}

func TestKernelExactReopensLeaderCeiling(t *testing.T) {
	res := executeJob(ceilingJob("mvc-congest-rand", "random-tree", 0, 1000), nil)
	if res.Error != "" {
		t.Fatalf("job failed: %s", res.Error)
	}
	if !res.Verified {
		t.Fatal("solution is not a feasible G² cover")
	}
	if res.PhaseISize != 0 {
		t.Fatalf("Phase I committed %d vertices; the τ-never-fires regime did not hold", res.PhaseISize)
	}
	if res.LeaderPath != kernel.PathKernelExact {
		t.Fatalf("leader solve path %q, want %q", res.LeaderPath, kernel.PathKernelExact)
	}
	// The oracle solved the same thousand-node G² exactly — the quantity
	// that was unobtainable at n ≥ 500 before the kernel — and since Phase
	// I committed nothing, the exact leader solve must land exactly on it
	// (ratio 1, not merely ≤ 1+ε).
	if res.Optimum <= 0 {
		t.Fatalf("oracle did not produce a true optimum: %d", res.Optimum)
	}
	if res.Cost != res.Optimum {
		t.Fatalf("kernel-exact leader solve cost %d differs from the true optimum %d (ratio %.4f)",
			res.Cost, res.Optimum, res.Ratio)
	}
}

// TestKernelExactCeilingMore widens the gate: the deterministic congest MVC
// on the same unweighted thousand-node tree, and the weighted variant
// (whose Phase-II wire format ships weights, so the weighted kernel rules —
// pendant transfer, weighted folding, NT — run at the leader) against the
// weighted oracle.
func TestKernelExactCeilingMore(t *testing.T) {
	if testing.Short() {
		t.Skip("additional thousand-node runs in -short mode")
	}
	for _, tc := range []struct {
		alg       string
		maxWeight int64
	}{
		{"mvc-congest", 0},
		{"mwvc-congest", 16},
	} {
		res := executeJob(ceilingJob(tc.alg, "random-tree", tc.maxWeight, 1000), nil)
		if res.Error != "" {
			t.Fatalf("%s: %s", tc.alg, res.Error)
		}
		if !res.Verified || res.Optimum <= 0 {
			t.Fatalf("%s: verified=%v optimum=%d", tc.alg, res.Verified, res.Optimum)
		}
		if res.Ratio > 1.5+1e-9 {
			t.Fatalf("%s: ratio %.4f exceeds 1+ε", tc.alg, res.Ratio)
		}
		if res.LeaderPath == "" {
			t.Fatalf("%s: no leader-solve report", tc.alg)
		}
	}
}
