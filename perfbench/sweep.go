package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
)

// sweepJob is one fixed job of a sweep workload; name keys its pinned
// outputs.
type sweepJob struct {
	name string
	job  harness.Job
}

// instKey identifies the instance (graph and Gʳ) a job runs on.
func (j sweepJob) instKey() string {
	return fmt.Sprintf("%s/n=%d/s=%d/r=%d", j.job.Generator.Key(), j.job.N, j.job.InstanceSeed, j.job.Power)
}

// congestSweepJobs is the paper's CONGEST algorithms on connected-gnp at
// n=1000, one job at a time on the batch engine with one shard.
func congestSweepJobs() []sweepJob {
	gnp := harness.GeneratorSpec{Name: "connected-gnp"}
	job := func(gen harness.GeneratorSpec, r int, alg string, eps float64, gather string) harness.Job {
		return harness.Job{Generator: gen, N: 1000, Power: r, Algorithm: alg, Epsilon: eps,
			Engine: "batch", Shards: 1, Seed: 1, InstanceSeed: 1, Gather: gather}
	}
	return []sweepJob{
		{"mvc-congest/r2", job(gnp, 2, "mvc-congest", 0.5, "")},
		{"mwvc-congest/r2", job(harness.GeneratorSpec{Name: "connected-gnp", MaxWeight: 2}, 2, "mwvc-congest", 0.5, "")},
		{"mds-congest/r2", job(gnp, 2, "mds-congest", 0, "")},
		{"mvc-congest/r3-sparsified", job(gnp, 3, "mvc-congest", 0.5, "sparsified")},
	}
}

// leaderKernelSeeds are the connected-gnp n=200 instances of leader-kernel;
// on each, mvc-clique-rand's leader takes the kernel-exact path.
var leaderKernelSeeds = []int64{3, 7}

// leaderKernelJobs runs, per instance, mvc-clique-rand alone, then
// mvc-clique-rand and greedy-mds with the exact oracle on (the vertex cover
// and dominating set kernels on all of G²).
func leaderKernelJobs() []sweepJob {
	var out []sweepJob
	for _, s := range leaderKernelSeeds {
		base := harness.Job{Generator: harness.GeneratorSpec{Name: "connected-gnp"}, N: 200, Power: 2,
			Engine: "batch", Shards: 1, Seed: s, InstanceSeed: s}
		rand, oracle, mds := base, base, base
		rand.Algorithm, rand.Epsilon = "mvc-clique-rand", 0.5
		oracle.Algorithm, oracle.Epsilon, oracle.OracleN = "mvc-clique-rand", 0.5, 200
		mds.Algorithm, mds.OracleN = "greedy-mds", 200
		out = append(out,
			sweepJob{fmt.Sprintf("s%d/mvc-clique-rand", s), rand},
			sweepJob{fmt.Sprintf("s%d/mvc-clique-rand+oracle", s), oracle},
			sweepJob{fmt.Sprintf("s%d/greedy-mds+oracle", s), mds})
	}
	return out
}

// instance is a built graph with its power graph.
type instance struct{ g, p *graph.Graph }

// buildInstances builds every distinct instance the jobs run on.
func buildInstances(jobs []sweepJob) (map[string]*instance, error) {
	out := map[string]*instance{}
	for _, j := range jobs {
		k := j.instKey()
		if out[k] != nil {
			continue
		}
		g, err := j.job.Generator.Build(j.job.N, rand.New(rand.NewSource(j.job.InstanceSeed)))
		if err != nil {
			return nil, err
		}
		out[k] = &instance{g, g.Power(j.job.Power)}
	}
	return out, nil
}

// pin is the part of a job's result a faster build must still reproduce.
type pin struct {
	Cost         int64  `json:"cost"`
	SolutionSize int    `json:"solutionSize"`
	Rounds       int    `json:"rounds"`
	Messages     int64  `json:"messages"`
	TotalBits    int64  `json:"totalBits"`
	LeaderPath   string `json:"leaderPath"`
	Verified     bool   `json:"verified"`
	Optimum      int64  `json:"optimum"`
}

func pinOf(jr *harness.JobResult) pin {
	return pin{jr.Cost, jr.SolutionSize, jr.Rounds, jr.Messages, jr.TotalBits, jr.LeaderPath, jr.Verified, jr.Optimum}
}

//go:embed pins.json
var pinsJSON []byte

// loadPins returns the pinned outputs of one sweep workload's jobs.
func loadPins(workload string) (map[string]pin, error) {
	var all map[string]map[string]pin
	if err := json.Unmarshal(pinsJSON, &all); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return all[workload], nil
}

// checkPin compares a job's result with its pinned values.
func checkPin(name string, jr *harness.JobResult, pins map[string]pin) error {
	if jr.Error != "" {
		return fmt.Errorf("job %s: %s", name, jr.Error)
	}
	want, ok := pins[name]
	if !ok {
		return fmt.Errorf("job %s: no pinned values", name)
	}
	if got := pinOf(jr); got != want {
		return fmt.Errorf("job %s: got %+v, pinned %+v", name, got, want)
	}
	return nil
}

// pass runs every job once in the given order through
// harness.SolveInstance, checking each against its pin, and returns the
// pass's wall time.
func pass(jobs []sweepJob, order []int, insts map[string]*instance, pins map[string]pin, led *ledger) time.Duration {
	start := time.Now()
	for _, i := range order {
		j := jobs[i]
		in := insts[j.instKey()]
		jr := harness.SolveInstance(context.Background(), in.g, in.p, j.job, nil, nil)
		led.op(checkPin(j.name, jr, pins))
	}
	return time.Since(start)
}

// tracedPass is pass with the wall tracer attached. Oracle jobs run without
// the in-harness oracle and then call the kernel solver directly, which is
// the same work with the oracle visible as its own span; the optimum is
// still checked against its pin.
func (t *tracing) tracedPass(jobs []sweepJob, order []int, insts map[string]*instance, pins map[string]pin, led *ledger) time.Duration {
	start := time.Now()
	for _, i := range order {
		j := jobs[i]
		in := insts[j.instKey()]
		job := j.job
		job.OracleN = 0
		jr := t.solve(in.g, in.p, job)
		if j.job.OracleN > 0 && jr.Error == "" {
			jr.Optimum = t.oracle(in.p, jr.Problem)
		}
		led.op(checkPin(j.name, jr, pins))
	}
	return time.Since(start)
}
