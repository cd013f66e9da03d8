// Command perfbench is the repository's benchmark. One process runs one
// workload — the CONGEST sweep, the leader kernel, or the serving layer
// under mixed or churn-heavy traffic — checks that every output is still
// correct, and prints its metrics; the last line of standard output is one
// JSON object with the result. With --trace 1 it reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

// endToEnd lists every end-to-end metric with its unit, in output order.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"success_rate", "ratio"}, {"sweep_s", "s"},
	{"cold_p50_ms", "ms"}, {"churn_p50_ms", "ms"},
}

// unsteady are the latencies that move by more than a regression bound may
// allow between runs on a shared host: the tails, and the hit median, a
// loopback round trip of tens of microseconds. They are printed with the
// end-to-end metrics but reported in the result only by the traced run, as
// per-layer metrics of the load generator.
var unsteady = [][2]string{{"hit_p50_ms", "ms"}, {"hit_p99_ms", "ms"}, {"cold_p95_ms", "ms"}, {"churn_p95_ms", "ms"}}

// A run sets up at least minSetups times and until set-ups have taken
// setupBudget, but at most maxSetups times; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// bench is one run: its arguments, the gate ledger, and what it measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	led      *ledger
	t        *tracing // nil unless --trace 1
	e2e      map[string]float64
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"congest-sweep", "leader-kernel", "serve-mixed", "serve-churn"}

var workloads = map[string]func(*bench) error{
	"congest-sweep": (*bench).sweep,
	"leader-kernel": (*bench).sweep,
	"serve-mixed":   (*bench).serveMixed,
	"serve-churn":   (*bench).serveChurn,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all of them in one process")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	pinOut := flag.Bool("pin", false, "print the pinned outputs of a sweep workload's jobs as JSON and exit")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *pinOut {
		return printPins(names)
	}
	correct, attempted, failed := true, 0, 0
	metrics := map[string]any{}
	for _, name := range names {
		if len(names) > 1 {
			resetPeakRSS()
		}
		b := &bench{workload: name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			led: &ledger{}, e2e: map[string]float64{}}
		if *trace == 1 {
			b.t = newTracing()
		}
		ok, result := b.run()
		correct = correct && ok
		attempted += b.led.attempted
		failed += b.led.failed
		for k, v := range result {
			if len(names) > 1 {
				k = name + "/" + k
			}
			metrics[k] = v
		}
	}
	out, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// run runs one workload, prints its header, metrics and gate failures, and
// returns whether every gate passed and the metrics in result form.
func (b *bench) run() (bool, map[string]any) {
	header := runHeader(b)
	hj, _ := json.Marshal(map[string]any{"header": header})
	fmt.Println(string(hj))

	steal0, total0 := hostSteal()
	if err := workloads[b.workload](b); err != nil {
		b.led.fail("%v", err)
	}
	steal1, total1 := hostSteal()
	fmt.Fprintf(os.Stderr, "host steal: %.2f%% of CPU time during the run\n",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	if _, ok := b.e2e["peak_rss_mb"]; !ok {
		b.e2e["peak_rss_mb"] = peakRSSMB()
	}
	b.e2e["success_rate"] = 1 - ratio(float64(b.led.failed), float64(b.led.attempted))

	names, values := endToEnd, b.e2e
	if b.t == nil {
		for _, nu := range unsteady {
			fmt.Printf("%-30s %14.6g %s (not in the result, see README.md)\n", nu[0], b.e2e[nu[0]], nu[1])
		}
		if v, ok := b.e2e["max_rate_rps"]; ok {
			fmt.Printf("%-30s %14.6g %s (not in the result, see README.md)\n", "max_rate_rps", v, "1/s")
		}
	} else {
		names, values = perLayerNames(), b.t.perLayer()
		for _, nu := range unsteady {
			values["loadgen."+nu[0]] = b.e2e[nu[0]]
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
		if err := os.MkdirAll(".bench_build", 0o755); err == nil {
			if err := b.t.writeSpans(path, header); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			}
		}
	}
	metrics := map[string]any{}
	for _, nu := range names {
		v := values[nu[0]]
		fmt.Printf("%-30s %14.6g %s\n", nu[0], v, nu[1])
		metrics[nu[0]] = map[string]any{"value": v, "unit": nu[1]}
	}
	for i, f := range b.led.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "gate: … %d more\n", len(b.led.failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "gate: %s\n", f)
	}
	return len(b.led.failures) == 0 && b.led.failed == 0 && b.led.attempted > 0, metrics
}

// runHeader records the machine and arguments every result was made on.
func runHeader(b *bench) map[string]any {
	return map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds.Seconds(), "trace": b.t != nil,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal reads from /proc/stat the CPU time, in clock ticks, that the
// hypervisor gave to other guests while this machine's vCPUs were ready to
// run (steal), and the total. A run with much steal ran on a busy host.
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS restarts the kernel's peak-RSS count for this process, so
// that each workload of --workload all reports its own peak, and the rebuild
// gates' reference copies stay out of it.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset, it spans workloads: %v\n", err)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// latencies sets the hit, cold and churn medians and tail percentiles of a
// run's ops (see chunked). On standard error it notes each sample count,
// warning when a percentile has fewer than ten samples beyond it, and the
// median of each tenth of the run, which shows a drifting host. A class
// with no samples fails the run, since its figures would read 0.
func (b *bench) latencies(ops []*op) {
	lat := classLatencies(ops)
	for _, c := range []struct {
		class string
		tail  float64
		name  string
	}{{"hit", 0.99, "hit_p99_ms"}, {"cold", 0.95, "cold_p95_ms"}, {"churn", 0.95, "churn_p95_ms"}} {
		xs := lat[c.class]
		if len(xs) == 0 {
			b.led.fail("no %s latencies were measured", c.class)
			continue
		}
		p50, k50 := chunked(xs, 0.5)
		tail, k := chunked(xs, c.tail)
		b.e2e[c.class+"_p50_ms"], b.e2e[c.name] = p50, tail
		note := ""
		if beyond(len(xs)/k, c.tail) < 10 {
			note = " (fewer than ten beyond the tail percentile)"
		}
		fmt.Fprintf(os.Stderr, "samples %s: %d, in %d chunk(s) for the median and %d for the tail%s\n",
			c.class, len(xs), k50, k, note)
		var tenths []float64
		for i := 0; i < 10; i++ {
			tenths = append(tenths, median(xs[i*len(xs)/10:(i+1)*len(xs)/10]))
		}
		fmt.Fprintf(os.Stderr, "%s p50 by tenth of the run (ms): %.4f\n", c.class, tenths)
	}
}

// timeSetups runs setup as often as minSetups, maxSetups and setupBudget
// ask, releasing each result before the next set-up and keeping the last,
// and sets setup_s to the median.
func timeSetups[T any](b *bench, setup func() (T, error), release func(T)) (T, error) {
	var walls []float64
	var last, zero T
	spent := 0.0
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget.Seconds()); i++ {
		if i > 0 {
			// One set-up is live at a time, so peak_rss_mb counts one.
			release(last)
			last = zero
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		walls = append(walls, time.Since(start).Seconds())
		spent += walls[i]
		last = v
	}
	b.e2e["setup_s"] = median(walls)
	fmt.Fprintf(os.Stderr, "set-ups (s): %.4f\n", walls)
	return last, nil
}

// probeCycles is how many cycles of churnCycle the sweep workloads' serving
// probe runs after each pass. It is a quarter of minChurnCycles, the least
// number of cycles of serve-churn, so that four passes give the probe's
// churn p95 its ten samples beyond; a run also holds at least that many.
const (
	minChurnCycles = 200
	probeCycles    = minChurnCycles / 4
)

// sweep runs a fixed job list: set-up builds every instance and starts a
// server on the first job's graph; then whole passes over the list, in an
// order drawn from the seed, fill the run (sweep_s is the median pass). Each
// pass is followed by probeCycles cycles of serve-churn's closed loop on the
// served graph, which give the serving metrics.
func (b *bench) sweep() error {
	jobs := sweepJobs[b.workload]()
	pins, err := loadPins(b.workload)
	if err != nil {
		return err
	}
	first := jobs[0]
	powers := []int{churnCycle.req.Power}
	type setup struct {
		insts map[string]*instance
		srv   *server
	}
	st, err := timeSetups(b, func() (setup, error) {
		insts, err := buildInstances(jobs)
		if err != nil {
			return setup{}, err
		}
		srv, err := startServer(insts[first.instKey()].g, powers)
		return setup{insts, srv}, err
	}, func(s setup) { s.srv.close() })
	if err != nil {
		return err
	}

	s := newSession(st.srv, st.insts[first.instKey()].g, powers, 1, b.seed, 4, b.led)
	defer s.close()
	order := rand.New(rand.NewSource(b.seed)).Perm(len(jobs))
	if b.t == nil {
		// Passes and probe cycles alternate, so both sample the whole run.
		var walls []float64
		cycles := 0
		start := time.Now()
		for len(walls) == 0 || time.Since(start) < b.seconds || cycles < minChurnCycles {
			runtime.GC()
			walls = append(walls, pass(jobs, order, st.insts, pins, b.led).Seconds())
			runtime.GC()
			cycles += s.closedLoop(probeCycles, 0, time.Minute, churnCycle)
		}
		b.e2e["sweep_s"] = median(walls)
		fmt.Fprintf(os.Stderr, "passes (s): %.4f\n", walls)
		b.latencies(s.ops)
		s.rebuildGate([]serve.SolveRequest{churnCycle.req}, 1)
		b.e2e["peak_rss_mb"] = s.peakRSSMB()
		return nil
	}
	s.closedLoop(minChurnCycles, 0, time.Minute, churnCycle)
	b.latencies(s.ops)
	s.rebuildGate([]serve.SolveRequest{churnCycle.req}, 1)
	b.t.httpFigures(s, s.served())
	if err := b.t.traceServe(s, replayBatches); err != nil {
		return err
	}
	err = b.t.timeSetup(func() (*graph.Graph, error) {
		return first.job.Generator.Build(first.job.N, rand.New(rand.NewSource(first.job.InstanceSeed)))
	}, first.job.Power)
	if err != nil {
		return err
	}
	runtime.GC()
	plain := pass(jobs, order, st.insts, pins, b.led)
	runtime.GC()
	traced := b.t.tracedPass(jobs, order, st.insts, pins, b.led)
	b.t.st.plainNs += plain.Nanoseconds()
	b.t.st.tracedNs += traced.Nanoseconds()
	return nil
}

// sweepJobs lists the fixed job lists of the sweep workloads.
var sweepJobs = map[string]func() []sweepJob{
	"congest-sweep": congestSweepJobs,
	"leader-kernel": leaderKernelJobs,
}

// printPins runs one pass of each named sweep workload's jobs and prints
// their outputs in the shape of pins.json.
func printPins(names []string) int {
	out := map[string]map[string]pin{}
	for _, w := range names {
		jobsOf, ok := sweepJobs[w]
		if !ok {
			if len(names) == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: %s has no pinned jobs\n", w)
				return 2
			}
			continue
		}
		jobs := jobsOf()
		insts, err := buildInstances(jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out[w] = map[string]pin{}
		for _, j := range jobs {
			in := insts[j.instKey()]
			jr := harness.SolveInstance(context.Background(), in.g, in.p, j.job, nil, nil)
			if jr.Error != "" {
				fmt.Fprintf(os.Stderr, "job %s: %s\n", j.name, jr.Error)
				return 1
			}
			out[w][j.name] = pinOf(jr)
		}
	}
	data, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(data))
	return 0
}
