package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// The golden r = 2 seed matrix pins the exact pre-generalization behavior of
// every distributed algorithm: solutions, phase statistics, and the full
// simulator accounting. The Gʳ generalization must leave the r = 2 path
// bit-identical — same messages, same rounds, same solutions — so this test
// is the refactoring guard the equivalence tests cannot provide (they compare
// step form against blocking form, not new code against old).
//
// Since the kernelize-then-solve subsystem became the default leader solver,
// the matrix runs under that default (i.e. it covers the "kernel-exact"
// localSolver), and every record is additionally replayed with the legacy
// raw exact solver pinned via Options.LocalSolver: the two must agree byte
// for byte. That agreement is by construction — below kernel.DefaultDirectN
// the ladder's direct path calls the legacy solver verbatim, and every
// golden instance is smaller than that — so the fixtures survive the solver
// swap untouched.
//
// Regenerate with:
//
//	go test ./internal/core/ -run TestGoldenR2Regression -update-golden
//
// but only ever from a commit whose r = 2 outputs are known-good, and only
// when behavior legitimately changes. If a future kernel change makes the
// ladder return a *different optimal* cover on these instances (tie-breaks
// among equal-cost optima), the right fix is to regenerate with the flag and
// say so in the commit — cost drift, by contrast, is always a bug.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_r2.json from the current implementation")

// goldenRecord is one cell of the seed matrix: everything observable about a
// run that must survive the Gʳ generalization unchanged.
type goldenRecord struct {
	Solution      []int `json:"solution"`
	PhaseISize    int   `json:"phaseISize"`
	FallbackJoins int   `json:"fallbackJoins"`
	Rounds        int   `json:"rounds"`
	Messages      int64 `json:"messages"`
	TotalBits     int64 `json:"totalBits"`
	MaxRoundBits  int64 `json:"maxRoundBits"`
	Bandwidth     int   `json:"bandwidth"`
}

// goldenGraphs builds the deterministic instance set of the seed matrix.
// Weighted variants exercise Theorem 7's weight reports.
func goldenGraphs() map[string]*graph.Graph {
	gnp16 := graph.ConnectedGNP(16, 0.25, rand.New(rand.NewSource(41)))
	gnp24 := graph.ConnectedGNP(24, 8.0/24, rand.New(rand.NewSource(42)))
	wgnp16 := graph.WithRandomWeights(
		graph.ConnectedGNP(16, 0.25, rand.New(rand.NewSource(43))), 9,
		rand.New(rand.NewSource(44)))
	return map[string]*graph.Graph{
		"gnp16":  gnp16,
		"gnp24":  gnp24,
		"wgnp16": wgnp16,
		"cat":    graph.Caterpillar(5, 3),
		"grid":   graph.Grid(4, 5),
	}
}

// goldenAlgorithms maps registry-style names to direct invocations. Each is
// run with a fixed seed, sequentially and sharded; the record stores the
// (identical) measurements once.
var goldenAlgorithms = map[string]func(g *graph.Graph, opts *Options) (*Result, error){
	"mvc-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongest(g, 0.5, opts)
	},
	"mvc-congest-eps4": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongest(g, 0.25, opts)
	},
	"mvc-congest-rand": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongestRandomized(g, 0.5, opts)
	},
	"mwvc-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMWVCCongest(g, 0.5, opts)
	},
	"mvc-clique-det": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCliqueDeterministic(g, 0.5, opts)
	},
	"mvc-clique-rand": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCliqueRandomized(g, 0.5, opts)
	},
	"mds-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMDSCongest(g, &MDSOptions{Options: *opts})
	},
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden_r2.json")
}

func goldenRecordOf(res *Result) goldenRecord {
	return goldenRecord{
		Solution:      res.Solution.Elements(),
		PhaseISize:    res.PhaseISize,
		FallbackJoins: res.FallbackJoins,
		Rounds:        res.Stats.Rounds,
		Messages:      res.Stats.Messages,
		TotalBits:     res.Stats.TotalBits,
		MaxRoundBits:  res.Stats.MaxRoundBits,
		Bandwidth:     res.Stats.Bandwidth,
	}
}

// TestGoldenR2Regression runs the whole seed matrix on the sequential and
// the sharded sweep and compares every record against
// testdata/golden_r2.json.
func TestGoldenR2Regression(t *testing.T) {
	graphs := goldenGraphs()
	got := make(map[string]goldenRecord)
	for gName, g := range graphs {
		for aName, run := range goldenAlgorithms {
			key := fmt.Sprintf("%s|%s|seed7", aName, gName)
			var records [2]goldenRecord
			for i, shards := range []int{0, 3} {
				res, err := run(g, &Options{Seed: 7, Shards: shards})
				if err != nil {
					t.Fatalf("%s (shards=%d): %v", key, shards, err)
				}
				records[i] = goldenRecordOf(res)
			}
			if !reflect.DeepEqual(records[0], records[1]) {
				t.Fatalf("%s: shard counts diverge:\nsequential: %+v\nsharded:    %+v", key, records[0], records[1])
			}
			// The default (kernel-exact) and the pinned legacy raw exact
			// solver must be byte-identical on the golden matrix: the
			// ladder's direct path guarantees it below DefaultDirectN.
			legacy, err := run(g, &Options{Seed: 7, LocalSolver: exact.VertexCover})
			if err != nil {
				t.Fatalf("%s (legacy solver): %v", key, err)
			}
			if lr := goldenRecordOf(legacy); !reflect.DeepEqual(records[0], lr) {
				t.Fatalf("%s: kernel-exact default diverges from the legacy exact solver:\nkernel: %+v\nlegacy: %+v",
					key, records[0], lr)
			}
			got[key] = records[0]
		}
	}

	if *updateGolden {
		// json.Marshal sorts map keys, so the file is stable across runs.
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(t)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), goldenPath(t))
		return
	}

	raw, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d records, matrix produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from the current matrix", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: r = 2 behavior drifted:\ngolden:  %+v\ncurrent: %+v", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}
