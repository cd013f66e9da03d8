package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

// replayBatches bounds the traced replays of the serve workloads (see
// replayPrefix).
const replayBatches = 60

// warmCycles is how many cycles serve-churn runs before it measures, and
// gateCycles how many it runs between two of its rebuild gates.
const (
	warmCycles = 40
	gateCycles = 25
)

// residentSeed fixes the resident graph of the serve workloads, as the sweep
// workloads fix their instances, so that runs under different seeds differ
// only in their traffic and churn streams.
const residentSeed = 1

// serveSetup builds the resident graph and starts a server on it, timed by
// timeSetups.
func (b *bench) serveSetup(gen harness.GeneratorSpec, n int, powers []int) (*graph.Graph, *server, error) {
	build := func() (*graph.Graph, error) { return gen.Build(n, rand.New(rand.NewSource(residentSeed))) }
	type setup struct {
		g   *graph.Graph
		srv *server
	}
	st, err := timeSetups(b, func() (setup, error) {
		g, err := build()
		if err != nil {
			return setup{}, err
		}
		srv, err := startServer(g, powers)
		return setup{g, srv}, err
	}, func(s setup) { s.srv.close() })
	if err != nil {
		return nil, nil, err
	}
	if b.t != nil {
		if err := b.t.timeSetup(build, powers[0]); err != nil {
			return nil, nil, err
		}
	}
	return st.g, st.srv, nil
}

// serveMixed drives a weighted connected-gnp graph at n=500, served by one
// solve worker, in an open loop over two connections at three fixed rates.
// The middle rate is the reference whose latencies are reported;
// max_rate_rps is the highest rate that met every limit.
func (b *bench) serveMixed() error {
	powers := []int{2, 3}
	g, srv, err := b.serveSetup(harness.GeneratorSpec{Name: "connected-gnp", MaxWeight: 2}, 500, powers)
	if err != nil {
		return err
	}
	s := newSession(srv, g, powers, min(2, runtime.NumCPU()), b.seed, 4, b.led)
	defer s.close()

	congest := []serve.SolveRequest{
		{Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch"},
		{Algorithm: "mvc-congest", Power: 3, Epsilon: 0.5, Engine: "batch"},
		{Algorithm: "mwvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch"},
		{Algorithm: "mwvc-congest", Power: 3, Epsilon: 0.5, Engine: "batch"},
	}
	gavril := []serve.SolveRequest{{Algorithm: "gavril", Power: 2}, {Algorithm: "gavril", Power: 3}}
	// One fresh solve in twenty is a congest algorithm; the rest are gavril.
	var rotation []serve.SolveRequest
	for i := 0; i < 20*len(congest); i++ {
		if i%20 == 0 {
			rotation = append(rotation, congest[i/20])
		} else {
			rotation = append(rotation, gavril[i%2])
		}
	}
	mix := &mixGen{rng: rand.New(rand.NewSource(b.seed + 1)), repeats: gavril, rotation: rotation, s: s}

	sec := b.seconds.Seconds()
	levels := []level{
		{rate: 50, dur: time.Duration(0.15 * sec * float64(time.Second))},
		{rate: 200, dur: time.Duration(0.5 * sec * float64(time.Second)), ref: true},
		{rate: 1000, dur: time.Duration(0.15 * sec * float64(time.Second))},
	}
	maxRate := 0.0
	var refOps []*op
	for _, lv := range levels {
		runtime.GC()
		r := s.openLevel(lv, mix.next)
		fmt.Fprintf(os.Stderr, "level %g rps: hit p99 %.3f ms, cold p95 %.3f ms, late %.3f ms, shed %d, meets %v\n",
			lv.rate, r.hitP99, r.coldP95, r.lateMs, r.shed, r.meets)
		if r.meets && lv.rate > maxRate {
			maxRate = lv.rate
		}
		if lv.ref {
			refOps = r.ops
			b.latencies(refOps)
		}
	}
	b.e2e["max_rate_rps"] = maxRate
	b.e2e["sweep_s"] = s.rebuildGate([]serve.SolveRequest{gavril[0], congest[0], congest[3]}, 5).Seconds()
	if b.t != nil {
		b.t.httpFigures(s, refOps)
		return b.t.traceServe(s, replayBatches)
	}
	return nil
}

// serveChurn drives a connected-gnm graph at n=10⁵ in a closed loop of
// churnCycle over one connection. Every gateCycles cycles it runs the
// rebuild gate once; sweep_s is the median of those gates' reference
// rebuilds (the churned graph, its G² and a gavril solve), so that, like
// the latencies, it samples the whole run.
func (b *bench) serveChurn() error {
	powers := []int{churnCycle.req.Power}
	g, srv, err := b.serveSetup(harness.GeneratorSpec{Name: "connected-gnm"}, 100_000, powers)
	if err != nil {
		return err
	}
	s := newSession(srv, g, powers, 1, b.seed, 4, b.led)
	defer s.close()
	// The warm-up cycles grow the heap to its steady size; their operations
	// pass the gates but stay out of the latency figures.
	s.closedLoop(warmCycles, 0, time.Minute, churnCycle)
	warm := len(s.ops)
	var walls []float64
	cycles := 0
	start := time.Now()
	for cycles < minChurnCycles || time.Since(start) < b.seconds {
		runtime.GC()
		cycles += s.closedLoop(gateCycles, 0, time.Minute, churnCycle)
		walls = append(walls, s.rebuildGate([]serve.SolveRequest{churnCycle.req}, 1).Seconds())
	}
	b.e2e["sweep_s"] = median(walls)
	b.e2e["peak_rss_mb"] = s.peakRSSMB()
	fmt.Fprintf(os.Stderr, "rebuild gates (s): %.4f\n", walls)
	b.latencies(s.ops[warm:])
	if b.t != nil {
		b.t.httpFigures(s, s.served())
		return b.t.traceServe(s, replayBatches)
	}
	return nil
}
