package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"powergraph/internal/bitset"
	"powergraph/internal/centralized"
	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/kernel"
	"powergraph/internal/obs"
	"powergraph/internal/serve"
	"powergraph/internal/verify"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share op; which span caused which is recovered from interval nesting.
type span struct {
	Op    int    `json:"op"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
}

// layers lists the layers self time is reported for, in output order.
var layers = []string{"graph", "congest", "core", "kernel", "centralized", "verify", "harness", "serve"}

// tracing holds a traced run's spans (in memory until the run ends) and the
// counters recorded at the same boundaries.
type tracing struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
	st    layerStats
}

func newTracing() *tracing { return &tracing{epoch: time.Now()} }

func (t *tracing) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracing) add(op int, layer, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op, layer, name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
}

// selfTimes returns each layer's self time: the time its spans cover that
// no span of a layer nested inside it covers, summed over operations. The
// engine marks phase spans from whichever node's handler runs first, so
// spans of one layer may overlap each other and need not nest exactly in
// their caller's; attributing each instant of an operation to the innermost
// layer active then keeps every instant counted once.
func (t *tracing) selfTimes() map[string]int64 {
	t.mu.Lock()
	byOp := map[int]map[string][][2]int64{}
	for _, s := range t.spans {
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string][][2]int64{}
		}
		byOp[s.Op][s.Layer] = append(byOp[s.Op][s.Layer], [2]int64{s.Start, s.End})
	}
	t.mu.Unlock()
	self := map[string]int64{}
	for _, spans := range byOp {
		var covered [][2]int64
		for _, l := range innermostFirst {
			own := union(spans[l])
			self[l] += length(own) - length(intersect(own, covered))
			covered = union(append(covered, own...))
		}
	}
	return self
}

// innermostFirst orders the layers from the innermost caller outwards.
var innermostFirst = []string{"kernel", "centralized", "verify", "core", "congest", "harness", "graph", "serve"}

// union merges intervals into a sorted list of disjoint ones.
func union(iv [][2]int64) [][2]int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var out [][2]int64
	for _, x := range s {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
		} else {
			out = append(out, x)
		}
	}
	return out
}

// intersect intersects two sorted lists of disjoint intervals.
func intersect(a, b [][2]int64) [][2]int64 {
	var out [][2]int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if lo < hi {
			out = append(out, [2]int64{lo, hi})
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(iv [][2]int64) int64 {
	var n int64
	for _, x := range iv {
		n += x[1] - x[0]
	}
	return n
}

// writeSpans writes every span as one JSON line.
func (t *tracing) writeSpans(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats are the counters and timings the traced run records at each
// layer boundary; perLayer turns them into the per-layer metrics.
type layerStats struct {
	buildMs, powerMs []float64
	powerEdges       int

	applyUs, materializeMs, incpowerMs []float64
	// Per replayed batch: its graph churn path in-process, and its served
	// latency from due to done; graph.churn_path_share compares the two.
	churnPathMs, churnHTTPMs        []float64
	dirtyRows, updates, fullUpdates int

	runNs, leaderNs, rounds, nodeRounds, messages int64
	congestAllocs, gcCycles                       uint64
	coreNs                                        map[string]int64

	reduceNs, searchNodes, kernelN, oracleNs, oracleNodes int64
	oracleAllocs                                          uint64

	verifyNs, gavrilNs int64

	hitUs, coldMs, churnMs, httpHitMs []float64
	cacheHitRatio, splicedShare       float64
	lateP99                           float64

	plainNs, tracedNs, serveSelfNs int64
}

// rtSamples reads the runtime counters the allocation and GC figures are
// deltas of.
var rtSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readRuntime() (allocs, gcs uint64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcs = s[1].Value.Uint64()
	}
	return allocs, gcs
}

// wallTracer is an obs.Tracer that wall-stamps the events the engine already
// emits — the run itself, the phase-span marks and the leader's KernelSolve
// events — as spans of the congest, core and kernel layers. It asks for no
// per-round events, so the engine skips the per-round accounting exactly as
// in an untraced run.
type wallTracer struct {
	t  *tracing
	op int

	mu       sync.Mutex
	runStart time.Time
	runEnd   time.Time // zero until a run ended
	open     map[spanKey]time.Time
}

// spanKey identifies one open phase span: the engine repeats a name under
// different indices (Phase-I iterations, MDS phases).
type spanKey struct {
	name  string
	index int
}

var _ obs.Tracer = (*wallTracer)(nil)

func (w *wallTracer) RunStart(obs.RunInfo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runStart = time.Now()
}

func (w *wallTracer) Round(obs.RoundEvent) {}

func (w *wallTracer) SpanBegin(s obs.Span) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.open == nil {
		w.open = map[spanKey]time.Time{}
	}
	w.open[spanKey{s.Name, s.Index}] = time.Now()
}

func (w *wallTracer) SpanEnd(s obs.Span) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	k := spanKey{s.Name, s.Index}
	begin, ok := w.open[k]
	if !ok {
		return
	}
	delete(w.open, k)
	w.t.add(w.op, "core", "core."+s.Name, begin, now)
	if w.t.st.coreNs == nil {
		w.t.st.coreNs = map[string]int64{}
	}
	w.t.st.coreNs[s.Name] += now.Sub(begin).Nanoseconds()
}

func (w *wallTracer) KernelSolve(e obs.KernelSolveEvent) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.t.add(w.op, "kernel", "kernel.leader", now.Add(-time.Duration(e.DurationNS)), now)
	st := &w.t.st
	st.leaderNs += e.DurationNS
	st.reduceNs += e.ReduceNS
	st.searchNodes += e.SearchNodes
	st.kernelN += int64(e.KernelN)
}

func (w *wallTracer) RunEnd(obs.RunEnd) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runEnd = now
	w.t.add(w.op, "congest", "congest.run", w.runStart, now)
	w.t.st.runNs += now.Sub(w.runStart).Nanoseconds()
}

func (w *wallTracer) WantRounds() bool { return false }

// solve runs one harness job with a wallTracer attached and records the
// harness span around it, plus the post-run verification span and the
// allocation and GC deltas of a distributed run, or the centralized span of
// a centralized one.
func (t *tracing) solve(g, p *graph.Graph, job harness.Job) *harness.JobResult {
	w := &wallTracer{t: t, op: t.nextOp()}
	a0, c0 := readRuntime()
	start := time.Now()
	jr := harness.SolveInstance(context.Background(), g, p, job, w, nil)
	end := time.Now()
	a1, c1 := readRuntime()
	t.add(w.op, "harness", "harness.solve_instance", start, end)
	if w.runEnd.IsZero() {
		t.add(w.op, "centralized", "centralized."+job.Algorithm, start, end)
		return jr
	}
	t.add(w.op, "verify", "verify.post_run", w.runEnd, end)
	st := &t.st
	st.verifyNs += end.Sub(w.runEnd).Nanoseconds()
	st.rounds += int64(jr.Rounds)
	st.nodeRounds += int64(g.N()) * int64(jr.Rounds)
	st.messages += jr.Messages
	st.congestAllocs += a1 - a0
	st.gcCycles += c1 - c0
	return jr
}

// oracle computes the exact optimum of p the way the harness oracle does,
// through the kernel solver with an unlimited budget, and records its span
// and report.
func (t *tracing) oracle(p *graph.Graph, problem string) int64 {
	s := kernel.NewSolver(kernel.Config{MaxNodes: -1})
	a0, _ := readRuntime()
	start := time.Now()
	var sol *bitset.Set
	var rep kernel.Report
	if problem == harness.ProblemMDS {
		sol, rep = s.DominatingSet(p)
	} else {
		sol, rep = s.VertexCover(p)
	}
	end := time.Now()
	a1, _ := readRuntime()
	t.add(t.nextOp(), "kernel", "kernel.oracle", start, end)
	st := &t.st
	st.oracleNs += end.Sub(start).Nanoseconds()
	st.oracleAllocs += a1 - a0
	st.oracleNodes += rep.SearchNodes
	st.reduceNs += rep.ReduceNS
	st.searchNodes += rep.SearchNodes
	st.kernelN += int64(rep.KernelN)
	return verify.Cost(p, sol)
}

// timeSetup times the graph layer's share of set-up with direct calls:
// building g and materializing Gʳ.
func (t *tracing) timeSetup(build func() (*graph.Graph, error), r int) error {
	start := time.Now()
	g, err := build()
	if err != nil {
		return err
	}
	mid := time.Now()
	p := g.Power(r)
	end := time.Now()
	op := t.nextOp()
	t.add(op, "graph", "graph.build", start, mid)
	t.add(op, "graph", "graph.power", mid, end)
	t.st.buildMs = append(t.st.buildMs, ms(mid.Sub(start)))
	t.st.powerMs = append(t.st.powerMs, ms(end.Sub(mid)))
	t.st.powerEdges = p.M()
	return nil
}

// replayPrefix caps the in-process replays at the ops up to the given
// number of churn batches, which keeps the traced run within its time limit
// on the large graphs.
func replayPrefix(ops []*op, batches int) []*op {
	for i, o := range ops {
		if o.kind == opChurn {
			if batches == 0 {
				return ops[:i]
			}
			batches--
		}
	}
	return ops
}

// replayInstance re-sends ops, in order, to a fresh in-process
// serve.Instance on the session's base graph, timing every Instance call,
// and checks each answer against the served one. It returns the solves the
// instance answered cold and the replay's wall time.
func (t *tracing) replayInstance(s *session, ops []*op) (map[*op]bool, time.Duration, error) {
	inst := serve.NewInstance("replay", s.base)
	if err := prime(inst, s.powers); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cold := map[*op]bool{}
	for _, o := range ops {
		op := t.nextOp()
		start := time.Now()
		if o.kind == opChurn {
			res, err := inst.Churn(o.edits)
			end := time.Now()
			t.add(op, "serve", "serve.instance_churn", start, end)
			if err != nil {
				return nil, 0, fmt.Errorf("replayed churn: %w", err)
			}
			if res.Version != o.churn.Version {
				return nil, 0, fmt.Errorf("replayed churn reached version %d, served %d", res.Version, o.churn.Version)
			}
			t.st.churnMs = append(t.st.churnMs, ms(end.Sub(start)))
			continue
		}
		resp, err := inst.Solve(context.Background(), o.req)
		end := time.Now()
		t.add(op, "serve", "serve.instance_solve", start, end)
		if err != nil {
			return nil, 0, fmt.Errorf("replayed solve: %w", err)
		}
		if d := diffResponse(o.solve, resp); d != "" || resp.Version != o.solve.Version {
			return nil, 0, fmt.Errorf("replayed solve %+v at version %d differs: %s", o.req, resp.Version, d)
		}
		if resp.Cached {
			t.st.hitUs = append(t.st.hitUs, float64(end.Sub(start).Nanoseconds())/1e3)
		} else {
			t.st.coldMs = append(t.st.coldMs, ms(end.Sub(start)))
			cold[o] = true
		}
	}
	return cold, time.Since(start), nil
}

// replayLayers re-executes the same work through the lower layers' own
// entry points: every churn batch through graph.Overlay.Apply, Materialize
// and graph.IncrementalPower for each served power, every cold solve
// through harness.SolveInstance, with gavril split into its centralized
// and verify calls. Each answer is checked against the served one. With
// traced false it runs bare, as the baseline of the tracing overhead; it
// returns its wall time.
func (t *tracing) replayLayers(s *session, ops []*op, cold map[*op]bool, traced bool) (time.Duration, error) {
	ov := graph.NewOverlay(s.base)
	view := s.base
	powers := map[int]*graph.Graph{}
	for _, r := range s.powers {
		powers[r] = s.base.Power(r)
	}
	st := &t.st
	start := time.Now()
	for _, o := range ops {
		op := t.nextOp()
		switch {
		case o.kind == opChurn:
			t0 := time.Now()
			if err := ov.Apply(o.edits); err != nil {
				return 0, fmt.Errorf("replayed overlay apply: %w", err)
			}
			t1 := time.Now()
			view = ov.Materialize()
			t2 := time.Now()
			for _, r := range s.powers {
				p, ps := graph.IncrementalPower(view, powers[r], r, o.edits)
				powers[r] = p
				if traced {
					st.updates++
					st.dirtyRows += ps.Dirty
					if ps.Full {
						st.fullUpdates++
					}
				}
			}
			t3 := time.Now()
			if traced {
				t.add(op, "graph", "graph.overlay_apply", t0, t1)
				t.add(op, "graph", "graph.materialize", t1, t2)
				t.add(op, "graph", "graph.incremental_power", t2, t3)
				st.applyUs = append(st.applyUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
				st.materializeMs = append(st.materializeMs, ms(t2.Sub(t1)))
				st.incpowerMs = append(st.incpowerMs, ms(t3.Sub(t2)))
				st.churnPathMs = append(st.churnPathMs, ms(t3.Sub(t0)))
				st.churnHTTPMs = append(st.churnHTTPMs, ms(o.done-o.due))
			}
		case !cold[o]:
		case o.req.Algorithm == "gavril":
			p := powers[o.req.Power]
			t0 := time.Now()
			sol := centralized.Gavril2Approx(p)
			t1 := time.Now()
			cost := verify.Cost(p, sol)
			ok, _ := verify.IsVertexCover(p, sol)
			t2 := time.Now()
			if traced {
				t.add(op, "centralized", "centralized.gavril", t0, t1)
				t.add(op, "verify", "verify.vertex_cover", t1, t2)
				st.gavrilNs += t1.Sub(t0).Nanoseconds()
				st.verifyNs += t2.Sub(t1).Nanoseconds()
			}
			if cost != o.solve.Cost || sol.Count() != o.solve.SolutionSize || !ok {
				return 0, fmt.Errorf("replayed gavril at version %d: cost %d size %d verified %v, served %d %d", o.solve.Version, cost, sol.Count(), ok, o.solve.Cost, o.solve.SolutionSize)
			}
		default:
			job := jobFor(o.req, view.N())
			var jr *harness.JobResult
			if traced {
				jr = t.solve(view, powers[o.req.Power], job)
			} else {
				jr = harness.SolveInstance(context.Background(), view, powers[o.req.Power], job, nil, nil)
			}
			want := &serve.SolveResponse{Cost: jr.Cost, SolutionSize: jr.SolutionSize, Verified: jr.Verified,
				Rounds: jr.Rounds, Messages: jr.Messages, TotalBits: jr.TotalBits, M: view.M()}
			if d := diffResponse(want, o.solve); d != "" || jr.Error != "" {
				return 0, fmt.Errorf("replayed %s at version %d differs: %s %s", o.req.Algorithm, o.solve.Version, d, jr.Error)
			}
		}
	}
	return time.Since(start), nil
}

// traceServe runs the in-process replays of a session's traffic: through
// serve.Instance, then through the lower layers bare and traced. The serve
// layer's self time is the Instance replay minus the same work bare through
// the lower layers; the tracing overhead is traced minus bare.
func (t *tracing) traceServe(s *session, batches int) error {
	ops := replayPrefix(s.served(), batches)
	cold, instWall, err := t.replayInstance(s, ops)
	if err != nil {
		return err
	}
	bare, err := t.replayLayers(s, ops, cold, false)
	if err != nil {
		return err
	}
	traced, err := t.replayLayers(s, ops, cold, true)
	if err != nil {
		return err
	}
	t.st.serveSelfNs += max(0, (instWall - bare).Nanoseconds())
	t.st.plainNs += bare.Nanoseconds()
	t.st.tracedNs += traced.Nanoseconds()
	return nil
}

// httpFigures records what the traced run reads off the HTTP traffic the
// end-to-end latencies come from: client round trips of hits, generator
// lateness, and the server instance's cache and splice ratios.
func (t *tracing) httpFigures(s *session, ops []*op) {
	var late []float64
	for _, o := range ops {
		if !o.ok() || o.gate {
			continue
		}
		late = append(late, ms(o.sent-o.due))
		if o.kind == opSolve && o.solve.Cached {
			t.st.httpHitMs = append(t.st.httpHitMs, ms(o.done-o.sent))
		}
	}
	st := &t.st
	st.lateP99 = percentile(late, 0.99)
	info := s.srv.inst.Info().Stats
	st.cacheHitRatio = ratio(float64(info.CacheHits), float64(info.CacheHits+info.Solves))
	st.splicedShare = ratio(float64(info.SplicedUpdates), float64(info.SplicedUpdates+info.FullUpdates))
}

// perLayer assembles every per-layer metric; layers a workload does not
// exercise report 0.
func (t *tracing) perLayer() map[string]float64 {
	st := &t.st
	engineNs := float64(st.runNs - st.leaderNs)
	m := map[string]float64{
		"graph.build_ms":               median(st.buildMs),
		"graph.power_ms":               median(st.powerMs),
		"graph.power_edges":            float64(st.powerEdges),
		"graph.overlay_apply_us":       median(st.applyUs),
		"graph.materialize_ms":         median(st.materializeMs),
		"graph.incpower_ms":            median(st.incpowerMs),
		"graph.incpower_dirty_rows":    ratio(float64(st.dirtyRows), float64(st.updates)),
		"graph.incpower_full_share":    ratio(float64(st.fullUpdates), float64(st.updates)),
		"graph.churn_path_share":       ratio(median(st.churnPathMs), median(st.churnHTTPMs)),
		"congest.ns_per_msg":           ratio(engineNs, float64(st.messages)),
		"congest.ns_per_node_round":    ratio(engineNs, float64(st.nodeRounds)),
		"congest.allocs_per_msg":       ratio(float64(st.congestAllocs), float64(st.messages)),
		"congest.gc_cycles":            float64(st.gcCycles),
		"congest.rounds":               float64(st.rounds),
		"congest.messages":             float64(st.messages),
		"core.phase1_ms":               float64(st.coreNs["phase1"]) / 1e6,
		"core.leader_elect_ms":         float64(st.coreNs["leader-elect"]) / 1e6,
		"core.phase2_gather_ms":        float64(st.coreNs["phase2-gather"]) / 1e6,
		"core.phase2_flood_ms":         float64(st.coreNs["phase2-flood"]) / 1e6,
		"core.mds_votes_ms":            float64(st.coreNs["mds-votes"]) / 1e6,
		"core.mds_estimate_ms":         float64(st.coreNs["mds-estimate"]) / 1e6,
		"kernel.leader_ms":             float64(st.leaderNs) / 1e6,
		"kernel.reduce_ms":             float64(st.reduceNs) / 1e6,
		"kernel.search_nodes":          float64(st.searchNodes),
		"kernel.kernel_n":              float64(st.kernelN),
		"kernel.oracle_ms":             float64(st.oracleNs) / 1e6,
		"kernel.allocs_per_node":       ratio(float64(st.oracleAllocs), float64(st.oracleNodes)),
		"verify.ms":                    float64(st.verifyNs) / 1e6,
		"centralized.gavril_ms":        float64(st.gavrilNs) / 1e6,
		"serve.instance_solve_hit_us":  median(st.hitUs),
		"serve.instance_solve_cold_ms": median(st.coldMs),
		"serve.instance_churn_ms":      median(st.churnMs),
		"serve.http_ms":                max(0, median(st.httpHitMs)-median(st.hitUs)/1e3),
		"serve.cache_hit_ratio":        st.cacheHitRatio,
		"serve.spliced_share":          st.splicedShare,
		"loadgen.late_p99_ms":          st.lateP99,
		"trace.overhead_share":         ratio(float64(st.tracedNs-st.plainNs), float64(st.plainNs)),
	}
	self := t.selfTimes()
	delete(self, "serve") // Instance calls ran in a replay of their own; see traceServe
	self["serve"] = st.serveSelfNs
	var total int64
	for _, l := range layers {
		total += self[l]
	}
	for _, l := range layers {
		m["self."+l+"_ms"] = float64(self[l]) / 1e6
		m["self."+l+"_share"] = ratio(float64(self[l]), float64(total))
	}
	return m
}

// perLayerNames lists every per-layer metric with its unit, in output order.
func perLayerNames() [][2]string {
	out := [][2]string{
		{"graph.build_ms", "ms"}, {"graph.power_ms", "ms"}, {"graph.power_edges", "count"},
		{"graph.overlay_apply_us", "us"}, {"graph.materialize_ms", "ms"}, {"graph.incpower_ms", "ms"},
		{"graph.incpower_dirty_rows", "count"}, {"graph.incpower_full_share", "ratio"}, {"graph.churn_path_share", "ratio"},
		{"congest.ns_per_msg", "ns"}, {"congest.ns_per_node_round", "ns"}, {"congest.allocs_per_msg", "count"},
		{"congest.gc_cycles", "count"}, {"congest.rounds", "count"}, {"congest.messages", "count"},
		{"core.phase1_ms", "ms"}, {"core.leader_elect_ms", "ms"}, {"core.phase2_gather_ms", "ms"},
		{"core.phase2_flood_ms", "ms"}, {"core.mds_votes_ms", "ms"}, {"core.mds_estimate_ms", "ms"},
		{"kernel.leader_ms", "ms"}, {"kernel.reduce_ms", "ms"}, {"kernel.search_nodes", "count"},
		{"kernel.kernel_n", "count"}, {"kernel.oracle_ms", "ms"}, {"kernel.allocs_per_node", "count"},
		{"verify.ms", "ms"}, {"centralized.gavril_ms", "ms"},
		{"serve.instance_solve_hit_us", "us"}, {"serve.instance_solve_cold_ms", "ms"}, {"serve.instance_churn_ms", "ms"},
		{"serve.http_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.spliced_share", "ratio"},
		{"loadgen.late_p99_ms", "ms"}, {"loadgen.hit_p50_ms", "ms"}, {"loadgen.hit_p99_ms", "ms"}, {"loadgen.cold_p95_ms", "ms"},
		{"loadgen.churn_p95_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}
	for _, l := range layers {
		out = append(out, [2]string{"self." + l + "_ms", "ms"}, [2]string{"self." + l + "_share", "ratio"})
	}
	return out
}
