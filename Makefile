# Single entry points shared by CI (.github/workflows/ci.yml) and humans.

GO ?= go
OUT ?= bench-out

.PHONY: build vet test race race-shard race-serve serve-smoke serve-load bench bench-engine bench-obs bench-step bench-kernel fuzz-kernel sweep sweep-scale sweep-power-smoke sweep-kernel sweep-sparsify sweep-mega sweep-mega-smoke trace-smoke sparsify-smoke docs-check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet docs-check
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detector pass over the shard barrier, the only concurrent code in the
# simulator: the sharded engine's worker pool under adversarial shard sizes
# (empty shards, one-node shards), the sequential-vs-sharded random-traffic
# differential, the harness-level sharded determinism differential, and the
# allocation gate and Reset property test at shards 2 and 7 (program state
# reused by value, stepped by the worker pool) — the CI race-shard job.
race-shard:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestNegativeShardsRejected|TestEngineDifferentialRandomTraffic|TestRoundLoopAllocationFree|TestResetMatchesFresh' \
		./internal/congest/ ./internal/congest/primitives/ ./internal/harness/

# Race-detector pass over the serving layer: the churn property tests
# (incremental Gʳ maintenance byte-identical to full recomputes, shard
# invariance on churned instances), the component-cached exact solver,
# the overlay/incremental-power graph layer, and harness cancellation — the
# CI serve-smoke job's second leg.
race-serve:
	$(GO) test -race -count=1 \
		-run 'TestChurn|TestIncremental|TestOverlay|TestRunLoadSmoke|TestSolveInstance|TestCancel|TestServer' \
		./internal/serve/ ./internal/graph/ ./internal/kernel/ ./internal/harness/ ./internal/congest/

# Serving-layer smoke: the full HTTP surface against golden responses
# (including the no-leaked-goroutines check), validation and NDJSON churn
# paths, and the load-generator accounting invariants.
serve-smoke:
	$(GO) test -count=1 -run 'TestServer|TestSolveCanceled|TestRunLoadSmoke|TestLoadLoadSpec' ./internal/serve/

# Sustained mixed-load benchmark against an in-process server (regenerates
# BENCH_serve.json: QPS plus per-endpoint p50/p95 under concurrent solve +
# churn traffic).
serve-load:
	$(GO) run ./cmd/powerserve -load specs/serve-load.json -out BENCH_serve.json

# Go micro-benchmarks (bench_test.go and friends).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Engine hot loop: a blocking handler through the coroutine adapter vs the
# native step program (see internal/congest/bench_test.go).
bench-engine:
	$(GO) test -bench='BenchmarkEngine$$' -benchmem -run='^$$' ./internal/congest/

# Observability overhead on the engine hot loop: nil tracer ("off") vs
# span-only vs full per-round accounting (see
# internal/congest/bench_obs_test.go). The "off" rows are directly comparable
# to bench-engine's handler rows — the disabled-tracer contract is <2% and
# zero added allocations.
bench-obs:
	$(GO) test -bench=BenchmarkObs -benchmem -run='^$$' ./internal/congest/

# Per-algorithm comparison of the engine's two execution paths:
# coroutine-adapted blocking reference vs native step program
# (see internal/core/step_bench_test.go).
bench-step:
	$(GO) test -bench=BenchmarkStepVsCoroutine -benchmem -run='^$$' ./internal/core/

# Kernelize-then-solve vs legacy raw exact on leader-shaped instances
# (squares of sparse graphs): solve time, kernel size after reductions, and
# whether the raw solver exhausts the stress budget.
bench-kernel:
	$(GO) test -bench='BenchmarkKernel' -benchmem -run='^$$' ./internal/kernel/

# Short fuzz pass over the kernel lift invariants (feasibility + LP lower
# bound on arbitrary graph encodings) — the CI smoke configuration.
fuzz-kernel:
	$(GO) test -run='^$$' -fuzz=FuzzKernelLiftFeasible -fuzztime=20s ./internal/kernel/

# Full scenario sweep through the experiment harness; override SPEC to point
# at another matrix, e.g. `make sweep SPEC=specs/power-sweep.json`.
SPEC ?= specs/podc20-sweep.json
sweep:
	$(GO) run ./cmd/powerbench -spec $(SPEC) -out $(OUT)

# Thousand-node sweep over all seven distributed algorithms (the workload
# behind BENCH_scale.json; single worker so per-job wall clocks are
# uncontended).
sweep-scale:
	$(GO) run ./cmd/powerbench -spec specs/step-sweep.json -workers 1 -out $(OUT)

# CI gate for the (algorithm × power) matrix: a small distributed power
# sweep (n = 60, r = 1…4) that fails on any job error or any solution that
# is not a feasible cover/dominating set of its Gʳ.
sweep-power-smoke:
	$(GO) run ./cmd/powerbench -spec specs/power-smoke.json -strict -quiet -out $(OUT)

# The kernelize-then-solve sweep (and its CI gate): randomized + weighted
# variants at n = 500…2000 with the kernel-exact leader solver and true
# optimum-checked ratios at every size (regenerates BENCH_kernel.json).
sweep-kernel:
	$(GO) run ./cmd/powerbench -spec specs/kernel-sweep.json -strict -quiet -out $(OUT)

# The sparsified Phase-II gather at r ∈ {3, 4}, n = 500…2000: the
# StepSparsify certificate gather on the three CONGEST leader algorithms,
# with the gather's own message count in each cell's gatherMessages column.
sweep-sparsify:
	$(GO) run ./cmd/powerbench -spec specs/sparsify-sweep.json -strict -quiet -out $(OUT)

# CI smoke test of the sparsified gather: the sparsify matrix at smoke
# sizes (r ∈ {3, 4}) under -strict, which fails on any failed job,
# infeasible Gʳ solution or leader solve that fell back, with per-job
# traces validated by powertrace -check (malformed spans, such as a broken
# phase2-sparsify span, fail it).
sparsify-smoke:
	$(GO) run ./cmd/powerbench -spec specs/sparsify-smoke.json -strict -quiet \
		-out $(OUT) -trace $(OUT)/sparsify-traces
	$(GO) run ./cmd/powertrace -check $(OUT)/sparsify-traces

# Large-n sweeps over the sharded engine (regenerate BENCH_mega.json
# and BENCH_mega-1m.json): MDS end to end plus the MVC Lemma-6 shortcut
# rows on a sparse 100k instance with a shard-count axis, then the 300k
# and million-node shortcut cells. Expect about an hour on one core (the
# MDS phase budget is Θ(log²n·logΔ) phases of Θ(log n) rounds each; see
# ARCHITECTURE.md on when sharding pays).
sweep-mega:
	$(GO) run ./cmd/powerbench -spec specs/mega-sweep.json -workers 1 -out $(OUT)
	$(GO) run ./cmd/powerbench -spec specs/mega-1m.json -workers 1 -out $(OUT)

# CI gate for the mega path: the million-node sharded-engine smoke
# (fixed-size worker pool, sequential-identical output at n = 10⁶) plus one
# seeded 100k-vertex MDS cell asserted against the golden summary (rounds,
# messages, solution size) pinned in internal/harness/mega_test.go.
sweep-mega-smoke:
	MEGA_SMOKE=1 $(GO) test -count=1 -timeout 45m \
		-run 'TestShardedMillionNodes|TestMegaGoldenSummary' \
		./internal/congest/ ./internal/harness/

# Tracing gate: the power-smoke matrix with per-job trace files on, then
# powertrace validating every file end to end (typed records, sealed files,
# monotone-complete rounds, closed spans, totals matching run-end).
trace-smoke:
	$(GO) run ./cmd/powerbench -spec specs/power-smoke.json -strict -quiet \
		-out $(OUT) -trace $(OUT)/traces
	$(GO) run ./cmd/powertrace -check $(OUT)/traces

# Documentation gate: every package under internal/ must carry a package
# comment (a "// Package <name> ..." line somewhere in the package).
docs-check:
	@fail=0; \
	for d in internal/*/ internal/congest/primitives/; do \
		p=$$(basename $$d); \
		if ! grep -qs "^// Package $$p" $$d*.go; then \
			echo "docs-check: package $$p ($$d) has no package comment"; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-check: all internal packages documented"; \
	exit $$fail

clean:
	rm -rf $(OUT)
