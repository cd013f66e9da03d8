package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/graph"
)

// TestMDSAllocationsIndependentOfPhases pins that a Theorem-28 phase
// allocates nothing: the run's allocations are the same at PhaseFactor 1
// and 2, although the second runs twice the phases (and rounds). Every
// per-phase stage is held by value and reset, and every per-node buffer is
// sized for its largest possible use when it is first needed.
func TestMDSAllocationsIndependentOfPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, g := range []*graph.Graph{graph.ConnectedGNP(128, 0.05, rng), graph.RandomTree(96, rng)} {
		for _, rpow := range []int{2, 3} {
			allocs := map[int]float64{}
			rounds := map[int]int{}
			for _, pf := range []int{1, 2} {
				opts := &MDSOptions{Options: Options{Seed: 3, Power: rpow}, PhaseFactor: pf}
				allocs[pf] = testing.AllocsPerRun(2, func() {
					res, err := ApproxMDSCongest(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					rounds[pf] = res.Stats.Rounds
				})
			}
			if rounds[2] <= rounds[1] {
				t.Fatalf("n=%d rpow=%d: PhaseFactor 2 ran %d rounds, PhaseFactor 1 %d", g.N(), rpow, rounds[2], rounds[1])
			}
			if allocs[1] != allocs[2] {
				t.Errorf("n=%d rpow=%d: %.0f allocations per run at PhaseFactor 1, %.0f at 2 (%d vs %d rounds)",
					g.N(), rpow, allocs[1], allocs[2], rounds[1], rounds[2])
			}
		}
	}
}
