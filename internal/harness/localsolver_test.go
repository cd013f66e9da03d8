package harness

import "testing"

// TestLocalSolverRegistryInSync keeps the listing registry and the parser in
// step: every listed solver must parse, every solver must carry a
// description, and unknown names must fail loudly.
func TestLocalSolverRegistryInSync(t *testing.T) {
	infos := LocalSolverInfos()
	if len(infos) == 0 {
		t.Fatal("no local solvers registered")
	}
	for _, s := range infos {
		if _, err := parseLocalSolver(s.Name); err != nil {
			t.Errorf("listed solver %q does not parse: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("solver %q has no description", s.Name)
		}
	}
	if infos[0].Name != "kernel-exact" {
		t.Errorf("the default (kernel-exact) must lead the listing, got %q", infos[0].Name)
	}
	if _, err := parseLocalSolver(""); err != nil {
		t.Errorf("empty solver name must select the default: %v", err)
	}
	if _, err := parseLocalSolver("no-such-solver"); err == nil {
		t.Error("unknown solver name must be rejected")
	}
	// The raw branch and bound is no longer a local solver: the ladder's
	// direct rung already runs it on small instances.
	if _, err := parseLocalSolver("exact"); err == nil {
		t.Error("the removed \"exact\" local solver must be rejected")
	}
}
