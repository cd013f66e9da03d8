package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden job matrix pins every distributed registry algorithm end to
// end at the harness level: every supported power r ∈ 1..4, unweighted and
// weighted connected-gnp at n = 26. Each record holds the job, the
// solution's vertex list, and the full serialized JobResult — cost, oracle
// ratio, phase statistics, simulator Stats, leader path and span summary —
// so any change to what a seeded run computes or sends surfaces as a diff.
//
// Regenerate with:
//
//	go test ./internal/harness/ -run TestGoldenJobs -update-golden
//
// but only from a commit whose outputs are known-good, and only when
// behavior legitimately changes; say so in the commit.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_jobs.json from the current implementation")

const goldenJobsPath = "testdata/golden_jobs.json"

// goldenJobRecord is one pinned job: its coordinates, the solution, and the
// serialized result (Elapsed, Metrics and Shards never serialize).
type goldenJobRecord struct {
	Job      Job        `json:"job"`
	Solution []int      `json:"solution"`
	Result   *JobResult `json:"result"`
}

// goldenJobs expands the matrix in a fixed order with seeds derived the way
// Expand derives them, under root seed 1.
func goldenJobs() []Job {
	gens := []GeneratorSpec{{Name: "connected-gnp"}, {Name: "connected-gnp", MaxWeight: 16}}
	var jobs []Job
	for _, name := range AlgorithmNames() {
		alg, _ := lookupAlgorithm(name)
		if alg.Model == ModelCentralized {
			continue
		}
		eps := 0.0
		if alg.NeedsEps {
			eps = 0.5
		}
		for r := 1; r <= 4; r++ {
			if !alg.SupportsPower(r) {
				continue
			}
			for _, gen := range gens {
				j := Job{
					Index: len(jobs), Generator: gen, N: 26, Power: r,
					Algorithm: name, Epsilon: eps, OracleN: 26,
				}
				j.Seed = deriveSeed(1, j.cellKey(), 0)
				j.InstanceSeed = deriveSeed(1, j.instanceKey(), 0)
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// goldenRecordOf runs job through the sweep path (executeJob) for its
// JobResult, and once more directly for the solution's vertex list, which
// JobResult summarizes only as cost and size.
func goldenRecordOf(t *testing.T, job Job) goldenJobRecord {
	t.Helper()
	res := executeJob(job, nil)
	if res.Error != "" {
		t.Fatalf("%s r=%d %s: %s", job.Algorithm, job.Power, job.Generator.Key(), res.Error)
	}
	g, err := job.Generator.Build(job.N, rand.New(rand.NewSource(job.instanceSeed())))
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := lookupAlgorithm(job.Algorithm)
	run, err := alg.Run(context.Background(), g, g.Power(job.Power), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	return goldenJobRecord{Job: job, Solution: run.Solution.Elements(), Result: res}
}

// marshalGoldenJobs renders one compact record per line, so a behavior
// change shows up as a diff of exactly the affected jobs.
func marshalGoldenJobs(t *testing.T, recs []goldenJobRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(recs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// TestGoldenJobs replays the golden job matrix and requires every record to
// match testdata/golden_jobs.json byte for byte.
func TestGoldenJobs(t *testing.T) {
	jobs := goldenJobs()
	recs := make([]goldenJobRecord, len(jobs))
	for i, job := range jobs {
		recs[i] = goldenRecordOf(t, job)
	}
	got := marshalGoldenJobs(t, recs)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenJobsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenJobsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden jobs to %s", len(recs), goldenJobsPath)
		return
	}
	want, err := os.ReadFile(goldenJobsPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden file has %d lines, matrix produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d drifted:\ngolden:  %s\ncurrent: %s", i+1, wantLines[i], gotLines[i])
		}
	}
}
