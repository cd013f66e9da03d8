package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

const (
	graphID = "g"
	// primeSeed is the seed of the set-up solves that materialize each
	// served Gʳ; traffic never uses it, so those entries are never hit.
	primeSeed = -1
)

// ledger counts operations and records every correctness-gate failure. Any
// failure makes the run incorrect.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op counts one operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		l.failures = append(l.failures, err.Error())
	}
}

// fail records a gate failure that is not tied to one operation.
func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// server is an in-process serve.Server on a loopback port, reached only
// through its HTTP handler.
type server struct {
	inst *serve.Instance
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// startServer hosts g with one solve worker and materializes Gʳ for every
// power in powers before it starts listening.
func startServer(g *graph.Graph, powers []int) (*server, error) {
	srv := serve.New(serve.Options{Workers: 1})
	inst, err := srv.AddGraph(graphID, g)
	if err != nil {
		return nil, err
	}
	if err := prime(inst, powers); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		inst: inst,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return s, nil
}

// prime makes inst compute and cache Gʳ for each r through one cold gavril
// solve, so no measured request pays for Power(r).
func prime(inst *serve.Instance, powers []int) error {
	for _, r := range powers {
		resp, err := inst.Solve(context.Background(), serve.SolveRequest{Algorithm: "gavril", Power: r, Seed: primeSeed})
		if err != nil {
			return fmt.Errorf("prime G^%d: %w", r, err)
		}
		if resp.Error != "" || !resp.Verified {
			return fmt.Errorf("prime G^%d: %q verified=%v", r, resp.Error, resp.Verified)
		}
	}
	return nil
}

func (s *server) close() {
	s.hs.Close()
	<-s.done
}

// conn is one client connection: an HTTP client whose transport keeps at
// most one connection open, so requests on it are sent one at a time.
type conn struct {
	hc          *http.Client
	url         string
	lastVersion uint64
}

func newConn(url string) *conn {
	return &conn{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// post sends in as JSON and decodes a 2xx body into out.
func (c *conn) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

type opKind uint8

const (
	opSolve opKind = iota
	opChurn
)

// op is one request and its outcome. Times are offsets from the session
// epoch; due is when the schedule wanted it sent (equal to sent in a closed
// loop), so latency counts any wait a stall imposed on it.
type op struct {
	kind  opKind
	req   serve.SolveRequest // opSolve
	edits []graph.EdgeEdit   // opChurn, drawn when the batch is sent
	gate  bool               // a closing gate solve, kept out of the latency figures
	fresh bool               // a solve under a seed no earlier request used: must be cold

	due, sent, done time.Duration
	shed            bool // never sent: the level ended with it still queued
	err             error
	solve           *serve.SolveResponse
	churn           *serve.ChurnResult
}

func (o *op) ok() bool { return !o.shed && o.err == nil }

// class sorts a completed op into the latency classes: "churn", and solves
// split by the response's cached field into "hit" and "cold".
func (o *op) class() string {
	switch {
	case o.kind == opChurn:
		return "churn"
	case o.solve.Cached:
		return "hit"
	default:
		return "cold"
	}
}

func (o *op) version() uint64 {
	if o.kind == opChurn {
		return o.churn.Version
	}
	return o.solve.Version
}

// session is one served graph under load: the server, up to nproc client
// connections, the churn stream, and the log of every operation.
type session struct {
	srv    *server
	conns  []*conn
	base   *graph.Graph
	powers []int
	gen    *churnGen
	led    *ledger
	epoch  time.Time
	seeds  int64   // last fresh request seed handed out
	peakMB float64 // peak RSS before the last rebuild gate (see peakRSSMB)

	mu      sync.Mutex
	ops     []*op                           // completed ops, in completion order
	batches [][]graph.EdgeEdit              // accepted churn batches, in order
	cold    map[string]*serve.SolveResponse // "version|request" → its fresh response
}

func newSession(srv *server, base *graph.Graph, powers []int, conns int, seed int64, churnIns int, led *ledger) *session {
	s := &session{
		srv: srv, base: base, powers: powers, led: led, epoch: time.Now(),
		gen:  newChurnGen(base, seed, churnIns),
		cold: make(map[string]*serve.SolveResponse),
	}
	for i := 0; i < conns; i++ {
		s.conns = append(s.conns, newConn(srv.url))
	}
	return s
}

func (s *session) close() {
	for _, c := range s.conns {
		c.hc.CloseIdleConnections()
	}
	s.srv.close()
}

func (s *session) freshSeed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seeds++
	return s.seeds
}

func (s *session) now() time.Duration { return time.Since(s.epoch) }

// exec sends o on c and checks the response. Churn batches are drawn here,
// at send time, so only connection 0 may carry churn.
func (s *session) exec(c *conn, o *op) {
	o.sent = s.now()
	if o.kind == opChurn {
		o.edits = s.gen.next()
		var res serve.ChurnResult
		if o.err = c.post("/v1/graphs/"+graphID+"/edges", churnBody(o.edits), &res); o.err == nil {
			o.churn = &res
		}
	} else {
		var res serve.SolveResponse
		if o.err = c.post("/v1/graphs/"+graphID+"/solve", o.req, &res); o.err == nil {
			o.solve = &res
		}
	}
	o.done = s.now()
	s.check(c, o)
}

// check applies the per-response gates: 2xx (checked in post), a verified
// solution, a version that never goes backwards on one connection, a
// fresh-seed solve answered cold, and a repeat of a request already answered
// at its version answered from the cache, identical to the first answer.
func (s *session) check(c *conn, o *op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := o.err
	if err == nil && o.kind == opSolve && !o.solve.Verified {
		err = fmt.Errorf("solve %+v: solution not verified", o.req)
	}
	if err == nil && o.kind == opSolve && o.fresh && o.solve.Cached {
		err = fmt.Errorf("solve %+v: a fresh-seed solve came from the cache", o.req)
	}
	if err == nil && o.version() < c.lastVersion {
		err = fmt.Errorf("version went from %d back to %d on one connection", c.lastVersion, o.version())
	}
	if err == nil {
		c.lastVersion = o.version()
		if o.kind == opChurn {
			s.batches = append(s.batches, o.edits)
		} else {
			k := fmt.Sprintf("%d|%s", o.solve.Version, reqKey(o.req))
			first := s.cold[k]
			switch {
			case first == nil:
				if !o.solve.Cached {
					s.cold[k] = o.solve
				}
			case !o.solve.Cached:
				err = fmt.Errorf("solve %s: a repeat of an answered request was not served from the cache", k)
			default:
				if d := diffResponse(first, o.solve); d != "" {
					err = fmt.Errorf("solve %s: repeat differs from the first answer: %s", k, d)
				}
			}
		}
	}
	o.err = err
	s.ops = append(s.ops, o)
	s.led.op(err)
}

func reqKey(req serve.SolveRequest) string {
	b, _ := json.Marshal(req) // a struct of plain fields always marshals
	return string(b)
}

type editJSON struct {
	U   int  `json:"u"`
	V   int  `json:"v"`
	Del bool `json:"del,omitempty"`
}

func churnBody(edits []graph.EdgeEdit) any {
	out := make([]editJSON, len(edits))
	for i, e := range edits {
		out[i] = editJSON{e.U, e.V, e.Del}
	}
	return struct {
		Edits []editJSON `json:"edits"`
	}{out}
}

// diffResponse compares the content fields of two answers to one query.
func diffResponse(a, b *serve.SolveResponse) string {
	if a.Cost != b.Cost || a.SolutionSize != b.SolutionSize || a.Verified != b.Verified ||
		a.Rounds != b.Rounds || a.Messages != b.Messages || a.TotalBits != b.TotalBits || a.M != b.M {
		return fmt.Sprintf("cost/size/verified/rounds/messages/bits/m %d/%d/%v/%d/%d/%d/%d vs %d/%d/%v/%d/%d/%d/%d",
			a.Cost, a.SolutionSize, a.Verified, a.Rounds, a.Messages, a.TotalBits, a.M,
			b.Cost, b.SolutionSize, b.Verified, b.Rounds, b.Messages, b.TotalBits, b.M)
	}
	return ""
}

// cycle is one round of a closed loop: a churn batch, then colds cold
// solves of req under fresh seeds, each followed by hits repeats of it.
type cycle struct {
	colds, hits int
	req         serve.SolveRequest
}

// churnCycle is serve-churn's cycle, which the sweep workloads' serving
// probe repeats on their own graph: three cold gavril solves on G², each
// followed by ten hits.
var churnCycle = cycle{colds: 3, hits: 10, req: serve.SolveRequest{Algorithm: "gavril", Power: 2}}

// closedLoop drives connection 0 through cycles of cy. It runs at least
// minCycles cycles and at least d, but stops at limit, and returns the
// number of cycles it ran. Nothing else churns while it runs, so the
// repeats of a cold solve must all be cache hits (see check).
func (s *session) closedLoop(minCycles int, d, limit time.Duration, cy cycle) int {
	c := s.conns[0]
	start := time.Now()
	send := func(o *op) {
		o.due = s.now()
		s.exec(c, o)
	}
	n := 0
	for ; (n < minCycles || time.Since(start) < d) && time.Since(start) < limit; n++ {
		send(&op{kind: opChurn})
		for j := 0; j < cy.colds; j++ {
			req := cy.req
			req.Seed = s.freshSeed()
			send(&op{kind: opSolve, req: req, fresh: true})
			for i := 0; i < cy.hits; i++ {
				send(&op{kind: opSolve, req: req})
			}
		}
	}
	return n
}

// level is one step of an open-loop rate ladder.
type level struct {
	rate float64 // offered requests per second
	dur  time.Duration
	ref  bool // its latencies are the workload's end-to-end figures
}

// levelResult is what one ladder step measured.
type levelResult struct {
	level
	ops                     []*op
	hitP99, coldP95, lateMs float64 // lateMs: median lateness over the final quarter
	shed                    int
	meets                   bool
}

// Latency limits of the open-loop ladder. A level meets them when hit p99
// and cold p95 stay within their limits, the generator was not running
// behind at the level's end (the backlog did not grow), and no request was
// shed. Shed and failed requests count as misses of every limit.
const (
	limitHitP99  = 500.0  // ms
	limitColdP95 = 1000.0 // ms
	limitLate    = 100.0  // ms
	// shedGrace is how long after a level's schedule ends queued solves may
	// still be sent before they are shed.
	shedGrace = 2 * time.Second
)

// mixBlock is one block of the serve-mixed schedule, shuffled by the seed:
// eight repeats from the fixed request set ('r'), one fresh-seed cold solve
// ('f') and one churn batch ('c').
const mixBlock = "rrrrrrrrfc"

// mixGen draws the serve-mixed schedule block by block. Fresh solves walk a
// fixed rotation.
type mixGen struct {
	rng      *rand.Rand
	repeats  []serve.SolveRequest
	rotation []serve.SolveRequest
	block    []byte
	fresh    int
	s        *session
}

func (m *mixGen) next() *op {
	if len(m.block) == 0 {
		m.block = []byte(mixBlock)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	k := m.block[0]
	m.block = m.block[1:]
	switch k {
	case 'c':
		return &op{kind: opChurn}
	case 'f':
		req := m.rotation[m.fresh%len(m.rotation)]
		m.fresh++
		req.Seed = m.s.freshSeed()
		return &op{kind: opSolve, req: req, fresh: true}
	default:
		return &op{kind: opSolve, req: m.repeats[m.rng.Intn(len(m.repeats))]}
	}
}

// openLevel offers lv.rate requests per second for lv.dur, drawn from next
// and spread evenly, each on its connection's FIFO queue: churn on
// connection 0, solves alternating. A connection sends each request when it is due, or as soon
// as the previous one returns if it is already late.
func (s *session) openLevel(lv level, next func() *op) levelResult {
	n := int(lv.rate * lv.dur.Seconds())
	start := s.now() + 20*time.Millisecond
	deadline := start + lv.dur + shedGrace
	queues := make([][]*op, len(s.conns))
	var all []*op
	for i := 0; i < n; i++ {
		o := next()
		o.due = start + time.Duration(float64(i)/lv.rate*float64(time.Second))
		ci := i % len(s.conns)
		if o.kind == opChurn {
			ci = 0
		}
		queues[ci] = append(queues[ci], o)
		all = append(all, o)
	}
	var wg sync.WaitGroup
	for ci, q := range queues {
		wg.Add(1)
		go func(c *conn, q []*op) {
			defer wg.Done()
			for _, o := range q {
				if wait := o.due - s.now(); wait > 0 {
					time.Sleep(wait)
				}
				if o.kind == opSolve && s.now() > deadline {
					o.shed = true
					continue
				}
				s.exec(c, o)
			}
		}(s.conns[ci], q)
	}
	wg.Wait()

	res := levelResult{level: lv, ops: all}
	lat := classLatencies(all)
	res.hitP99 = percentile(lat["hit"], 0.99)
	res.coldP95 = percentile(lat["cold"], 0.95)
	var tail []float64
	for i, o := range all {
		switch {
		case o.shed:
			res.shed++
		case i >= 3*len(all)/4:
			tail = append(tail, ms(o.sent-o.due))
		}
	}
	res.lateMs = median(tail)
	res.meets = res.hitP99 <= limitHitP99 && res.coldP95 <= limitColdP95 &&
		res.lateMs <= limitLate && res.shed == 0 && failedOps(all) == 0
	return res
}

func failedOps(ops []*op) int {
	n := 0
	for _, o := range ops {
		if !o.shed && o.err != nil {
			n++
		}
	}
	return n
}

// classLatencies groups the latencies (ms, from due to done) of successful
// non-gate ops by class.
func classLatencies(ops []*op) map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range ops {
		if o.ok() && !o.gate {
			out[o.class()] = append(out[o.class()], ms(o.done-o.due))
		}
	}
	return out
}

// rebuildGate sends one cold solve per request and checks each against
// harness.SolveInstance on a fresh Power(r) of the graph rebuilt, without
// graph.Overlay, from the churn batches the server accepted. The reference
// sweep (rebuild, powers, solves) runs reps times; rebuildGate returns its
// median wall time.
func (s *session) rebuildGate(reqs []serve.SolveRequest, reps int) time.Duration {
	s.peakMB = max(s.peakMB, peakRSSMB())
	defer resetPeakRSS()
	got := make([]*serve.SolveResponse, len(reqs))
	sent := make([]serve.SolveRequest, len(reqs))
	for i, req := range reqs {
		req.Seed = s.freshSeed()
		o := &op{kind: opSolve, req: req, gate: true, fresh: true}
		o.due = s.now()
		s.exec(s.conns[0], o)
		if !o.ok() {
			return 0
		}
		got[i], sent[i] = o.solve, req
	}
	var walls []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		g, err := rebuild(s.base, s.batches)
		if err != nil {
			s.led.fail("rebuild from the edit stream: %v", err)
			return 0
		}
		powers := map[int]*graph.Graph{}
		results := make([]*harness.JobResult, len(sent))
		for i, req := range sent {
			p := powers[req.Power]
			if p == nil {
				p = g.Power(req.Power)
				powers[req.Power] = p
			}
			results[i] = harness.SolveInstance(context.Background(), g, p, jobFor(req, g.N()), nil, nil)
		}
		walls = append(walls, time.Since(start).Seconds())
		if rep > 0 {
			continue
		}
		for i, jr := range results {
			want := &serve.SolveResponse{
				Cost: jr.Cost, SolutionSize: jr.SolutionSize, Verified: jr.Verified,
				Rounds: jr.Rounds, Messages: jr.Messages, TotalBits: jr.TotalBits, M: g.M(),
			}
			if jr.Error != "" {
				s.led.fail("reference solve %+v: %s", sent[i], jr.Error)
			} else if d := diffResponse(want, got[i]); d != "" {
				s.led.fail("served solve %+v differs from the rebuilt reference: %s", sent[i], d)
			}
		}
	}
	return time.Duration(median(walls) * float64(time.Second))
}

// peakRSSMB is the process's peak resident set outside the rebuild gates,
// whose reference rebuild holds a second copy of the graph: each gate notes
// the peak so far and restarts the count when it ends.
func (s *session) peakRSSMB() float64 { return max(s.peakMB, peakRSSMB()) }

// jobFor maps a solve request onto the harness job the server runs for it.
func jobFor(req serve.SolveRequest, n int) harness.Job {
	return harness.Job{
		Generator: harness.GeneratorSpec{Name: "resident"},
		N:         n, Power: req.Power, Algorithm: req.Algorithm, Epsilon: req.Epsilon,
		Engine: req.Engine, Seed: req.Seed, Shards: req.Shards, MaxRounds: req.MaxRounds,
		Gather: req.Gather,
	}
}

// served returns the successful ops in an order a single client could have
// sent them in: by the graph version they ran on, each churn batch before
// the solves at the version it produced, then by send time.
func (s *session) served() []*op {
	s.mu.Lock()
	var out []*op
	for _, o := range s.ops {
		if o.ok() && !o.gate {
			out = append(out, o)
		}
	}
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.version() != b.version() {
			return a.version() < b.version()
		}
		if a.kind != b.kind {
			return a.kind == opChurn
		}
		return a.sent < b.sent
	})
	return out
}
