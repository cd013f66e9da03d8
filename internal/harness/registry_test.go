package harness

import (
	"testing"

	"powergraph/internal/congest"
)

// TestRegistryRunsNativelyOnBatchEngine proves the "zero coroutine
// adaptations" claim: every distributed registry algorithm is flagged
// NativeStep, and actually running each one never trips
// the blocking-handler coroutine adapter (congest.AdapterRuns stays flat).
func TestRegistryRunsNativelyOnBatchEngine(t *testing.T) {
	before := congest.AdapterRuns()
	for _, info := range AlgorithmInfos() {
		if info.Model == ModelCentralized {
			if info.NativeStep {
				t.Errorf("%s: centralized entry flagged NativeStep", info.Name)
			}
			continue
		}
		if !info.NativeStep {
			t.Errorf("%s: distributed entry not flagged NativeStep", info.Name)
		}
		for _, n := range []int{9, 20} {
			res := executeJob(differentialJob(info.Name, n, 0.5), nil)
			if res.Error != "" {
				t.Fatalf("%s n=%d: %s", info.Name, n, res.Error)
			}
		}
	}
	if after := congest.AdapterRuns(); after != before {
		t.Fatalf("batch runs used the coroutine adapter %d times; registry algorithms must step natively", after-before)
	}
}

// TestRegistryDescriptions keeps the powerbench -list output complete: every
// algorithm and generator carries a one-line description.
func TestRegistryDescriptions(t *testing.T) {
	for _, info := range AlgorithmInfos() {
		if info.Description == "" {
			t.Errorf("algorithm %s has no description", info.Name)
		}
	}
	for _, g := range GeneratorNames() {
		if GeneratorDescription(g) == "" {
			t.Errorf("generator %s has no description", g)
		}
	}
}

// TestOracleCacheSolvesOncePerInstance pins the oracle-cache contract under
// the widest sharing the harness produces: multiple algorithms, two
// shard counts, and the full power axis in one sweep still trigger exactly one
// exact solve per (generator, n, power, instance-seed, problem) tuple — the
// Gʳ cells (power ≠ 2) are cache cells of their own, never conflated with
// the r = 2 solves of the same instance seed.
func TestOracleCacheSolvesOncePerInstance(t *testing.T) {
	spec := &Spec{
		Name:       "oracle-count",
		RootSeed:   9,
		Trials:     2,
		Generators: []GeneratorSpec{{Name: "connected-gnp"}},
		Sizes:      []int{12, 16},
		Powers:     []int{1, 2, 3},
		Algorithms: []string{"mvc-congest", "mwvc-congest", "mds-congest", "gavril", "exact", "exact-mds"},
		// Two shard counts double every distributed job without changing
		// the instance set — the cache must not solve anything twice for it.
		ShardCounts: []int{0, 2},
		OracleN:     16,
	}
	jobs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := newOracleCache()
	distinct := map[oracleKey]bool{}
	powerCells := map[int]int{}
	for _, job := range jobs {
		alg, ok := lookupAlgorithm(job.Algorithm)
		if !ok {
			t.Fatalf("unknown algorithm %q", job.Algorithm)
		}
		key := oracleKey{
			gen: job.Generator.Key(), n: job.N, power: job.Power,
			seed: job.instanceSeed(), problem: alg.Problem,
		}
		if !distinct[key] {
			distinct[key] = true
			powerCells[job.Power]++
		}
		if res := executeJob(job, cache); res.Error != "" {
			t.Fatalf("job %d (%s): %s", job.Index, job.Algorithm, res.Error)
		}
	}
	// 2 sizes × 2 trials × 2 problems (mvc, mds) per power, 3 powers = 24
	// distinct instances.
	if want := 24; len(distinct) != want {
		t.Fatalf("expanded to %d distinct oracle keys, want %d", len(distinct), want)
	}
	for _, r := range []int{1, 2, 3} {
		if want := 8; powerCells[r] != want {
			t.Errorf("power r=%d contributed %d oracle cells, want %d", r, powerCells[r], want)
		}
	}
	if got := cache.solves.Load(); got != int64(len(distinct)) {
		t.Fatalf("oracle solved %d times for %d distinct instances", got, len(distinct))
	}
	if got := len(cache.m); got != len(distinct) {
		t.Fatalf("cache holds %d entries for %d distinct instances", got, len(distinct))
	}
}
