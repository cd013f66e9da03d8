package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/centralized"
	"powergraph/internal/graph"
)

// BenchmarkStepVsCoroutine compares, per algorithm, the engine's two
// execution paths on one mid-size instance: the coroutine adapter driving
// the preserved blocking reference against the native step program the
// registry dispatches to. The sweep/* rows are native only: the four job
// shapes of perfbench's congest-sweep workload (connected-gnp n=1000), so
// `make bench-step` (which runs with -benchmem) reproduces the per-run
// allocations ARCHITECTURE.md quotes without the benchmark harness.
func BenchmarkStepVsCoroutine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ConnectedGNP(256, 8.0/256, rng)
	gw := graph.WithRandomWeights(g, 20, rng)
	opts := &Options{Seed: 1}
	// The randomized variants never fire Phase I on a sparse instance
	// (τ ≥ 10 > average degree), so their leader solves essentially the
	// whole of G²; the polynomial 5/3 solver (Corollary 17) keeps that
	// identical-in-both-paths local solve from drowning the engine numbers.
	fastOpts := &Options{Seed: 1, LocalSolver: func(h *graph.Graph) *bitset.Set { return centralized.FiveThirdsOnGraph(h).Cover }}
	// Reduced estimator factors keep the MDS rounds benchable; both paths
	// run the identical schedule.
	mdsOpts := &MDSOptions{Options: *opts, SampleFactor: 1, PhaseFactor: 1}

	// Larger weighted/MDS instances pin the speedup the scale sweep relies
	// on at n = 1000 (the acceptance numbers quoted in ARCHITECTURE.md).
	g1k := graph.ConnectedGNP(1000, 8.0/1000, rng)
	gw1k := graph.WithRandomWeights(g1k, 20, rng)
	mdsOpts1k := &MDSOptions{Options: *opts}
	// The congest-sweep instances: weights 1–2 for the weighted job, the
	// sparsified gather at r=3.
	sweepG := graph.ConnectedGNP(1000, 8.0/1000, rng)
	sweepGW := graph.WithRandomWeights(sweepG, 2, rng)
	sweepR3 := &Options{Seed: 1, Power: 3}

	cases := []struct {
		name      string
		coroutine func() (*Result, error)
		native    func() (*Result, error)
	}{
		{
			"mvc-congest",
			func() (*Result, error) { return blockingMVCCongest(g, 0.5, opts) },
			func() (*Result, error) { return ApproxMVCCongest(g, 0.5, opts) },
		},
		{
			"mwvc-congest",
			func() (*Result, error) { return blockingMWVCCongest(gw, 0.5, opts) },
			func() (*Result, error) { return ApproxMWVCCongest(gw, 0.5, opts) },
		},
		{
			"mwvc-congest-n1000",
			func() (*Result, error) { return blockingMWVCCongest(gw1k, 0.5, fastOpts) },
			func() (*Result, error) { return ApproxMWVCCongest(gw1k, 0.5, fastOpts) },
		},
		{
			"mds-congest-n1000",
			func() (*Result, error) { return blockingMDSCongest(g1k, mdsOpts1k) },
			func() (*Result, error) { return ApproxMDSCongest(g1k, mdsOpts1k) },
		},
		{
			"mvc-congest-rand",
			func() (*Result, error) { return blockingMVCCongestRandomized(g, 0.5, fastOpts) },
			func() (*Result, error) { return ApproxMVCCongestRandomized(g, 0.5, fastOpts) },
		},
		{
			"mvc-clique-det",
			func() (*Result, error) { return blockingMVCCliqueDeterministic(g, 0.5, opts) },
			func() (*Result, error) { return ApproxMVCCliqueDeterministic(g, 0.5, opts) },
		},
		{
			"mvc-clique-rand",
			func() (*Result, error) { return blockingMVCCliqueRandomized(g, 0.5, fastOpts) },
			func() (*Result, error) { return ApproxMVCCliqueRandomized(g, 0.5, fastOpts) },
		},
		{
			"mds-congest",
			func() (*Result, error) { return blockingMDSCongest(g, mdsOpts) },
			func() (*Result, error) { return ApproxMDSCongest(g, mdsOpts) },
		},
		{"sweep/mvc-congest-r2", nil, func() (*Result, error) { return ApproxMVCCongest(sweepG, 0.5, opts) }},
		{"sweep/mwvc-congest-r2", nil, func() (*Result, error) { return ApproxMWVCCongest(sweepGW, 0.5, opts) }},
		{"sweep/mds-congest-r2", nil, func() (*Result, error) { return ApproxMDSCongest(sweepG, mdsOpts1k) }},
		{"sweep/mvc-congest-r3-sparsified", nil, func() (*Result, error) { return ApproxMVCCongest(sweepG, 0.5, sweepR3) }},
	}
	for _, c := range cases {
		if c.coroutine != nil {
			b.Run(c.name+"/coroutine", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.coroutine(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(c.name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.native(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
