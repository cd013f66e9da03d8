package harness

import (
	"context"
	"math/rand"
	"runtime/metrics"
	"testing"

	"powergraph/internal/obs"
)

// allocTracer samples the runtime's cumulative heap-allocation counter at
// every Round event into buffers sized before the run, so the tracer itself
// allocates nothing while the engine runs. The runtime folds a P's small
// allocations into the counter when it refills one of its spans, so a
// sample moves only once allocations have filled a span; a round loop that
// allocates every round still moves it in a steady fraction of rounds.
type allocTracer struct {
	sample []metrics.Sample
	last   uint64
	deltas []uint64
}

func newAllocTracer(maxRounds int) *allocTracer {
	return &allocTracer{
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
		deltas: make([]uint64, 0, maxRounds),
	}
}

func (a *allocTracer) read() uint64 {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

func (a *allocTracer) RunStart(obs.RunInfo) { a.last = a.read() }

func (a *allocTracer) Round(obs.RoundEvent) {
	now := a.read()
	if len(a.deltas) < cap(a.deltas) {
		a.deltas = append(a.deltas, now-a.last)
	}
	a.last = now
}

func (a *allocTracer) SpanBegin(obs.Span)               {}
func (a *allocTracer) SpanEnd(obs.Span)                 {}
func (a *allocTracer) KernelSolve(obs.KernelSolveEvent) {}
func (a *allocTracer) RunEnd(obs.RunEnd)                {}
func (a *allocTracer) WantRounds() bool                 { return true }
func (a *allocTracer) allocatingRounds() (rounds, alloc int) {
	return len(a.deltas), countNonZero(a.deltas)
}

func countNonZero(xs []uint64) int {
	k := 0
	for _, x := range xs {
		if x != 0 {
			k++
		}
	}
	return k
}

// TestRoundLoopAllocationFree is the engine's allocation gate: on every
// distributed registry algorithm at n=256, r=2, at least 99% of rounds
// allocate no heap object. The programs hold their step primitives by value
// and reset them, messages are flat values, and every per-node buffer is
// sized once, so what allocates is confined to the first rounds and a few
// stage transitions: leader election, the leader's local solve, the
// gathered item lists.
//
// The CONGESTED CLIQUE algorithms stop Phase I after O(1) iterations, so
// their runs (23 and 102 rounds here) are nothing but those transitions;
// for runs shorter than shortRun rounds the gate caps the number of
// allocating rounds at maxTransitionRounds instead.
const (
	shortRun            = 1000
	maxTransitionRounds = 10
)

func TestRoundLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every distributed algorithm at n=256")
	}
	for _, info := range AlgorithmInfos() {
		if info.Model == ModelCentralized {
			continue
		}
		for _, shards := range []int{0, 2, 7} {
			alg, _ := lookupAlgorithm(info.Name)
			job := Job{
				Generator: GeneratorSpec{Name: "connected-gnp"},
				N:         256, Power: 2,
				Algorithm: info.Name, Epsilon: 0.5,
				Seed: 5, Shards: shards,
				// A polynomial leader solve keeps the run short; the
				// solve happens within one round whichever solver runs.
				LocalSolver: "five-thirds",
			}
			rng := rand.New(rand.NewSource(job.instanceSeed()))
			g, err := job.Generator.Build(job.N, rng)
			if err != nil {
				t.Fatal(err)
			}
			p := g.Power(2)
			tr := newAllocTracer(1 << 17)
			res, err := alg.Run(context.Background(), g, p, job, tr)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", info.Name, shards, err)
			}
			rounds, alloc := tr.allocatingRounds()
			if rounds != res.Stats.Rounds {
				t.Fatalf("%s shards=%d: sampled %d of %d rounds", info.Name, shards, rounds, res.Stats.Rounds)
			}
			t.Logf("%s shards=%d: %d of %d rounds allocate", info.Name, shards, alloc, rounds)
			switch {
			case rounds < shortRun && alloc > maxTransitionRounds:
				t.Errorf("%s shards=%d: %d of %d rounds allocate (more than %d)", info.Name, shards, alloc, rounds, maxTransitionRounds)
			case rounds >= shortRun && 100*alloc > rounds:
				t.Errorf("%s shards=%d: %d of %d rounds allocate (more than 1%%)", info.Name, shards, alloc, rounds)
			}
		}
	}
}
