package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %g, want the lower middle 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %g, want 0", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {199, 0.95, 9}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestChunkedPercentiles(t *testing.T) {
	var xs []float64
	for i := 0; i < 600; i++ {
		xs = append(xs, float64(i%20+1))
	}
	if p50, k := chunked(xs, 0.5); k != 30 || p50 != 10 {
		t.Errorf("chunked(30×1..20, 0.5) = %g in %d chunks; want 10 in 30", p50, k)
	}
	if tail, k := chunked(xs, 0.95); k != 3 || tail != 19 {
		t.Errorf("chunked(30×1..20, 0.95) = %g in %d chunks; want 19 in 3", tail, k)
	}
	for i := 200; i < 400; i++ {
		xs[i] *= 10 // one chunk ran on a stalled host
	}
	p50, _ := chunked(xs, 0.5)
	tail, _ := chunked(xs, 0.95)
	if p50 != 10 || tail != 19 {
		t.Errorf("one stalled third moved the figures to %g, %g", p50, tail)
	}
	if tail, k := chunked(xs[:399], 0.95); k != 1 || tail != percentile(xs[:399], 0.95) {
		t.Errorf("a sample too small to cut is not read whole: %d chunks, tail %g", k, tail)
	}
}

// TestCacheGate feeds check answers whose cached field contradicts the
// traffic: a fresh-seed solve served from the cache, and a repeat of an
// answered request computed again. Both must fail the run.
func TestCacheGate(t *testing.T) {
	req := serve.SolveRequest{Algorithm: "gavril", Power: 2, Seed: 5}
	answer := func(cached bool) *serve.SolveResponse {
		return &serve.SolveResponse{Version: 3, Cost: 7, SolutionSize: 7, Verified: true, Cached: cached}
	}
	for _, c := range []struct {
		name   string
		ops    []*op
		failed int
	}{
		{"cold then hits", []*op{{req: req, fresh: true, solve: answer(false)}, {req: req, solve: answer(true)}, {req: req, solve: answer(true)}}, 0},
		{"fresh from the cache", []*op{{req: req, fresh: true, solve: answer(true)}}, 1},
		{"repeat recomputed", []*op{{req: req, fresh: true, solve: answer(false)}, {req: req, solve: answer(false)}}, 1},
	} {
		s := &session{led: &ledger{}, cold: map[string]*serve.SolveResponse{}}
		c0 := &conn{}
		for _, o := range c.ops {
			s.check(c0, o)
		}
		if s.led.failed != c.failed {
			t.Errorf("%s: %d failed ops, want %d: %v", c.name, s.led.failed, c.failed, s.led.failures)
		}
	}
}

// TestEmptyLatencyClassFails checks that a run in which one latency class
// got no samples fails, instead of reporting 0 ms for it.
func TestEmptyLatencyClassFails(t *testing.T) {
	b := &bench{led: &ledger{}, e2e: map[string]float64{}}
	b.latencies([]*op{{kind: opChurn, churn: &serve.ChurnResult{}, done: time.Millisecond}})
	if len(b.led.failures) != 2 {
		t.Errorf("a run without hit and cold samples recorded %d failures, want 2: %v", len(b.led.failures), b.led.failures)
	}
}

func TestChurnGenInvariants(t *testing.T) {
	gen := harness.GeneratorSpec{Name: "connected-gnp"}
	base, err := gen.Build(60, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	c := newChurnGen(base, 9, 4)
	edges := map[[2]int]bool{}
	for _, e := range base.Edges() {
		edges[key(e[0], e[1])] = true
	}
	mine := map[[2]int]bool{}
	ov := graph.NewOverlay(base)
	var batches [][]graph.EdgeEdit
	for b := 0; b < 300; b++ {
		batch := c.next()
		if len(batch) == 0 {
			t.Fatalf("batch %d is empty", b)
		}
		touched := map[[2]int]bool{}
		for _, ed := range batch {
			k := key(ed.U, ed.V)
			if touched[k] {
				t.Fatalf("batch %d edits %v twice", b, k)
			}
			touched[k] = true
			if ed.Del {
				if !mine[k] || !edges[k] {
					t.Fatalf("batch %d deletes %v, which the generator did not insert or is absent", b, k)
				}
				delete(mine, k)
				delete(edges, k)
			} else {
				if edges[k] {
					t.Fatalf("batch %d inserts %v, which is already present", b, k)
				}
				mine[k] = true
				edges[k] = true
			}
		}
		if err := ov.Apply(batch); err != nil {
			t.Fatalf("batch %d does not apply to the overlay: %v", b, err)
		}
		batches = append(batches, batch)
	}
	for _, e := range base.Edges() {
		if !edges[key(e[0], e[1])] {
			t.Fatalf("base edge %v was deleted", e)
		}
	}
	g, err := rebuild(base, batches)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("the churned graph is disconnected")
	}
	if g.M() != len(edges) {
		t.Errorf("rebuild has %d edges, the edit stream leaves %d", g.M(), len(edges))
	}
	view := ov.Materialize()
	for v := 0; v < g.N(); v++ {
		a, b := g.Neighbors(v), view.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: rebuild has %d neighbors, overlay %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: rebuild and overlay rows differ", v)
			}
		}
	}
	if _, err := rebuild(base, [][]graph.EdgeEdit{{{U: 0, V: 1, Del: !base.HasEdge(0, 1)}}}); err == nil {
		t.Error("rebuild accepted an edit that does not fit the edge set")
	}
}

// stalledLevel offers 50 requests/s for 400 ms on one connection to a
// server that holds the first request for stall and answers the rest at
// once.
func stalledLevel(t *testing.T, stall time.Duration) levelResult {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(serve.SolveResponse{Verified: true, Cost: 1})
	}))
	defer ts.Close()
	s := &session{led: &ledger{}, epoch: time.Now(), cold: map[string]*serve.SolveResponse{}}
	s.conns = []*conn{newConn(ts.URL)}
	defer s.conns[0].hc.CloseIdleConnections()
	seed := int64(0)
	res := s.openLevel(level{rate: 50, dur: 400 * time.Millisecond}, func() *op {
		seed++
		return &op{kind: opSolve, req: serve.SolveRequest{Algorithm: "gavril", Power: 2, Seed: seed}}
	})
	if len(res.ops) != 20 {
		t.Fatalf("level offered %d requests, want 20", len(res.ops))
	}
	return res
}

// TestOpenLoopDueTime stalls the first request of an open-loop level and
// checks that the requests queued behind it are timed from when they were
// due, not from when the connection got round to sending them.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	res := stalledLevel(t, stall)
	slack := 5 * time.Millisecond
	first := res.ops[0]
	for i, o := range res.ops {
		if !o.ok() {
			t.Fatalf("op %d failed: %v", i, o.err)
		}
		if want := first.due + time.Duration(i)*20*time.Millisecond; o.due != want {
			t.Errorf("op %d due at %v, want %v", i, o.due, want)
		}
		if o.sent < o.due-slack {
			t.Errorf("op %d sent %v before it was due", i, o.due-o.sent)
		}
		// Everything due during the stall waited for it on the one connection.
		if since := o.due - first.due; i > 0 && since < stall-slack {
			if late := o.sent - o.due; late < stall-since-slack {
				t.Errorf("op %d was %v late, want at least %v", i, late, stall-since)
			}
		}
	}
	if worst := percentile(classLatencies(res.ops)["cold"], 1); worst < ms(stall) {
		t.Errorf("worst latency %g ms hides the %v stall", worst, stall)
	}
	if !res.meets {
		t.Errorf("a level that drained its backlog before the end failed its limits: %+v", res)
	}
}

// TestOpenLoopBacklog checks that a level still running behind schedule at
// its end fails its limits.
func TestOpenLoopBacklog(t *testing.T) {
	res := stalledLevel(t, 1200*time.Millisecond)
	if res.meets || res.lateMs < limitLate {
		t.Errorf("a level whose generator ended %.0f ms behind met its limits", res.lateMs)
	}
}

// TestPinGate runs one pinned leader-kernel job and checks that its gate
// passes as pinned and fails once any pinned value is tampered with.
func TestPinGate(t *testing.T) {
	pins, err := loadPins("leader-kernel")
	if err != nil {
		t.Fatal(err)
	}
	var job sweepJob
	for _, j := range leaderKernelJobs() {
		if j.name == "s7/greedy-mds+oracle" {
			job = j
		}
	}
	insts, err := buildInstances([]sweepJob{job})
	if err != nil {
		t.Fatal(err)
	}
	in := insts[job.instKey()]
	jr := harness.SolveInstance(context.Background(), in.g, in.p, job.job, nil, nil)
	if err := checkPin(job.name, jr, pins); err != nil {
		t.Fatalf("untampered gate failed: %v", err)
	}
	tamper := []func(*pin){
		func(p *pin) { p.Cost++ },
		func(p *pin) { p.SolutionSize++ },
		func(p *pin) { p.Rounds++ },
		func(p *pin) { p.Messages++ },
		func(p *pin) { p.TotalBits++ },
		func(p *pin) { p.LeaderPath = "kernel-fallback" },
		func(p *pin) { p.Verified = false },
		func(p *pin) { p.Optimum++ },
	}
	for i, f := range tamper {
		bad := map[string]pin{}
		for k, v := range pins {
			bad[k] = v
		}
		p := bad[job.name]
		f(&p)
		bad[job.name] = p
		if checkPin(job.name, jr, bad) == nil {
			t.Errorf("tampered pin %d passed the gate", i)
		}
	}
	if checkPin("no-such-job", jr, pins) == nil {
		t.Error("a job without a pin passed the gate")
	}
}

func TestEverySweepJobIsPinned(t *testing.T) {
	for name, jobsOf := range sweepJobs {
		jobs := jobsOf()
		pins, err := loadPins(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(pins) != len(jobs) {
			t.Errorf("%s: %d pins for %d jobs", name, len(pins), len(jobs))
		}
		for _, j := range jobs {
			if _, ok := pins[j.name]; !ok {
				t.Errorf("%s: job %s has no pin", name, j.name)
			}
		}
	}
}
