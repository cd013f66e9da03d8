// Command powertrace parses and validates the per-job JSONL trace files a
// harness run writes under powerbench -trace <dir>, and renders a per-round
// timeline: round number, active nodes, message/bit volume, the worst
// single-link load, and which phase spans covered the round.
//
//	powertrace trace-dir                 # text timeline for every job file
//	powertrace -format csv trace-dir     # one CSV row per (job, round)
//	powertrace -check trace-dir          # validate only; non-zero exit on any violation
//	powertrace -job 12 trace-dir         # restrict to job index 12
//
// Validation enforces the trace-completeness contract end to end: every line
// is a typed JSON record, files open with a job header and close with a
// job-end seal, round events are monotone from zero and account for every
// counted round, their sums reproduce the run-end totals exactly, and every
// span instance closes with begin ≤ end inside the run's round range. All
// span checks are order-insensitive aggregates, so they hold for any order
// of marks within a round. Centralized
// jobs never touch the simulator; their files legitimately hold only the
// job header and seal.
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"powergraph/internal/obs"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "powertrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, argv []string) error {
	fs := flag.NewFlagSet("powertrace", flag.ContinueOnError)
	var (
		check  = fs.Bool("check", false, "validate only (no timeline); non-zero exit on any violation")
		format = fs.String("format", "text", "timeline format: text or csv")
		jobIdx = fs.Int("job", -1, "restrict to this job index (-1 = all)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown -format %q (want text or csv)", *format)
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: powertrace [-check] [-format text|csv] [-job N] <trace-dir-or-file>...")
	}

	var files []string
	for _, arg := range fs.Args() {
		st, err := os.Stat(arg)
		if err != nil {
			return err
		}
		if st.IsDir() {
			matches, err := filepath.Glob(filepath.Join(arg, "job-*.jsonl"))
			if err != nil {
				return err
			}
			if len(matches) == 0 {
				return fmt.Errorf("%s: no job-*.jsonl trace files", arg)
			}
			sort.Strings(matches)
			files = append(files, matches...)
		} else {
			files = append(files, arg)
		}
	}

	cw := newCSVOnce(w, *format == "csv")
	violations := 0
	for _, path := range files {
		tr, err := parseFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *jobIdx >= 0 && tr.Job.Index != *jobIdx {
			continue
		}
		probs := tr.validate()
		if len(probs) > 0 {
			violations += len(probs)
			for _, p := range probs {
				fmt.Fprintf(w, "VIOLATION %s: %s\n", path, p)
			}
			continue
		}
		switch {
		case *check:
			fmt.Fprintf(w, "ok %s: %s\n", path, tr.oneLine())
		case *format == "csv":
			tr.renderCSV(cw)
		default:
			tr.renderText(w)
		}
	}
	cw.flush()
	if violations > 0 {
		return fmt.Errorf("%d contract violations", violations)
	}
	return nil
}

// jobHeader is the subset of the harness Job record the timeline labels use.
type jobHeader struct {
	Index     int     `json:"index"`
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Power     int     `json:"power"`
	Engine    string  `json:"engine"`
	Epsilon   float64 `json:"epsilon"`
	Seed      int64   `json:"seed"`
}

type jobEnd struct {
	Error string `json:"error"`
	Spans string `json:"spans"`
}

// trace is one parsed per-job trace file.
type trace struct {
	Path     string
	Job      jobHeader
	Info     *obs.RunInfo
	Rounds   []obs.RoundEvent
	Begins   []obs.Span
	Ends     []obs.Span
	Kernels  []obs.KernelSolveEvent
	End      *obs.RunEnd
	Seal     *jobEnd
	hasJob   bool
	lineErrs []string
}

func parseFile(path string) (*trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr := &trace{Path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("bad record %q: %w", sc.Text(), err)
		}
		if first && head.Type != "job" {
			tr.lineErrs = append(tr.lineErrs, "file does not open with a job header")
		}
		first = false
		var err error
		switch head.Type {
		case "job":
			tr.hasJob = true
			err = json.Unmarshal(line, &tr.Job)
		case "run-start":
			tr.Info = &obs.RunInfo{}
			err = json.Unmarshal(line, tr.Info)
		case "round":
			var ev obs.RoundEvent
			if err = json.Unmarshal(line, &ev); err == nil {
				tr.Rounds = append(tr.Rounds, ev)
			}
		case "span-begin":
			var s obs.Span
			if err = json.Unmarshal(line, &s); err == nil {
				tr.Begins = append(tr.Begins, s)
			}
		case "span-end":
			var s obs.Span
			if err = json.Unmarshal(line, &s); err == nil {
				tr.Ends = append(tr.Ends, s)
			}
		case "kernel-solve":
			var ev obs.KernelSolveEvent
			if err = json.Unmarshal(line, &ev); err == nil {
				tr.Kernels = append(tr.Kernels, ev)
			}
		case "run-end":
			tr.End = &obs.RunEnd{}
			err = json.Unmarshal(line, tr.End)
		case "job-end":
			tr.Seal = &jobEnd{}
			err = json.Unmarshal(line, tr.Seal)
		default:
			tr.lineErrs = append(tr.lineErrs, fmt.Sprintf("unknown record type %q", head.Type))
		}
		if err != nil {
			return nil, fmt.Errorf("bad %s record: %w", head.Type, err)
		}
	}
	return tr, sc.Err()
}

// spanInterval is one reconstructed span instance: the half-open round range
// [Begin, End) covered by a (name, index) key's begin/end marks.
type spanInterval struct {
	Name       string
	Index      int
	Begin, End int
}

// intervals pairs the trace's span marks per (name, index) key,
// order-insensitively: a key's interval runs from its earliest begin to its
// latest end (the engine refcounts nodes, so within a key only the extremes
// are meaningful). Keys with mismatched mark counts are reported as
// violations by validate, not returned here.
func (tr *trace) intervals() []spanInterval {
	type key struct {
		name  string
		index int
	}
	begins := map[key][]int{}
	endsAt := map[key][]int{}
	for _, s := range tr.Begins {
		k := key{s.Name, s.Index}
		begins[k] = append(begins[k], s.Round)
	}
	for _, s := range tr.Ends {
		k := key{s.Name, s.Index}
		endsAt[k] = append(endsAt[k], s.Round)
	}
	var out []spanInterval
	for k, bs := range begins {
		es := endsAt[k]
		if len(es) == 0 {
			continue
		}
		iv := spanInterval{Name: k.name, Index: k.index, Begin: bs[0], End: es[0]}
		for _, b := range bs[1:] {
			if b < iv.Begin {
				iv.Begin = b
			}
		}
		for _, e := range es[1:] {
			if e > iv.End {
				iv.End = e
			}
		}
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Index < b.Index
	})
	return out
}

// validate returns every trace-contract violation in the file.
func (tr *trace) validate() []string {
	probs := append([]string(nil), tr.lineErrs...)
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if !tr.hasJob {
		bad("missing job header")
	}
	if tr.Seal == nil {
		bad("missing job-end seal")
		return probs
	}

	// Centralized baselines (and jobs that failed before the engine started)
	// never open a run; their files hold only the header and seal.
	if tr.Info == nil {
		if tr.End != nil || len(tr.Rounds) > 0 || len(tr.Begins) > 0 {
			bad("engine events without a run-start")
		}
		return probs
	}
	if tr.End == nil {
		bad("run-start without run-end")
		return probs
	}

	for i, ev := range tr.Rounds {
		if ev.Round != i {
			bad("round event %d carries round %d (not monotone-complete)", i, ev.Round)
			break
		}
		if ev.Active <= 0 || ev.Active > tr.Info.N {
			bad("round %d: %d active nodes with n=%d", i, ev.Active, tr.Info.N)
		}
		if ev.MaxLink > ev.Bits {
			bad("round %d: maxLink %d exceeds round bits %d", i, ev.MaxLink, ev.Bits)
		}
	}
	if len(tr.Rounds) != tr.End.Rounds {
		bad("%d round events for %d counted rounds", len(tr.Rounds), tr.End.Rounds)
	}
	var bits, msgs int64
	for _, ev := range tr.Rounds {
		bits += ev.Bits
		msgs += ev.Messages
	}
	if bits != tr.End.TotalBits || msgs != tr.End.Messages {
		bad("round sums bits=%d msgs=%d vs run-end bits=%d msgs=%d",
			bits, msgs, tr.End.TotalBits, tr.End.Messages)
	}

	// Span marks: per (name, index) key the begin and end counts must match
	// (no unclosed spans), and every mark must land in [0, Rounds] — ends may
	// legitimately sit at round == Rounds, the post-final-round position.
	type key struct {
		name  string
		index int
	}
	counts := map[key]int{}
	for _, s := range tr.Begins {
		counts[key{s.Name, s.Index}]++
	}
	for _, s := range tr.Ends {
		counts[key{s.Name, s.Index}]--
	}
	for k, c := range counts {
		if c != 0 {
			bad("span %s#%d: %+d unmatched marks (unclosed span)", k.name, k.index, c)
		}
	}
	for _, s := range append(append([]obs.Span(nil), tr.Begins...), tr.Ends...) {
		if s.Round < 0 || s.Round > tr.End.Rounds {
			bad("span %s#%d mark at round %d outside [0, %d]", s.Name, s.Index, s.Round, tr.End.Rounds)
		}
	}
	for _, iv := range tr.intervals() {
		if iv.End < iv.Begin {
			bad("span %s#%d ends (%d) before it begins (%d)", iv.Name, iv.Index, iv.End, iv.Begin)
		}
	}
	if tr.Seal.Error == "" && tr.End.Error != "" {
		bad("run-end error %q not reflected in job-end", tr.End.Error)
	}
	return probs
}

// oneLine is the -check summary for a valid file.
func (tr *trace) oneLine() string {
	if tr.Info == nil {
		return fmt.Sprintf("job %d %s (centralized, no engine events)", tr.Job.Index, tr.Job.Algorithm)
	}
	return fmt.Sprintf("job %d %s n=%d r=%d %s: %d rounds, %d span marks, %d kernel solves",
		tr.Job.Index, tr.Job.Algorithm, tr.Job.N, tr.Job.Power, tr.Info.Engine,
		len(tr.Rounds), len(tr.Begins)+len(tr.Ends), len(tr.Kernels))
}

// phasesAt names the spans covering round r, in interval order.
func phasesAt(ivs []spanInterval, r int) string {
	var names []string
	for _, iv := range ivs {
		covers := iv.Begin <= r && r < iv.End
		// A zero-length span (leader-solve) is attributed to the round it
		// occurred at, else it would never appear in the timeline.
		if iv.Begin == iv.End && iv.Begin == r {
			covers = true
		}
		if covers {
			names = append(names, iv.Name)
		}
	}
	return strings.Join(names, ",")
}

func (tr *trace) renderText(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", tr.oneLine())
	if tr.Info == nil {
		return
	}
	ivs := tr.intervals()
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "round\tactive\tmsgs\tbits\tmaxlink\tphases")
	for _, ev := range tr.Rounds {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n",
			ev.Round, ev.Active, ev.Messages, ev.Bits, ev.MaxLink, phasesAt(ivs, ev.Round))
	}
	tw.Flush()
	for _, k := range tr.Kernels {
		fmt.Fprintf(w, "kernel-solve: path=%s input=%dv/%de kernel=%dv/%de searchNodes=%d cost=%d optimal=%v\n",
			k.Path, k.InputN, k.InputM, k.KernelN, k.KernelM, k.SearchNodes, k.Cost, k.Optimal)
	}
	if tr.Seal.Spans != "" {
		fmt.Fprintf(w, "spans: %s\n", tr.Seal.Spans)
	}
	fmt.Fprintln(w)
}

var timelineCSVHeader = []string{
	"job", "algorithm", "n", "power", "engine",
	"round", "active", "msgs", "bits", "maxLink", "phases",
}

func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// csvOnce is a CSV writer that emits the timeline header with the first row,
// so mixed text/check invocations and empty selections stay header-free.
type csvOnce struct {
	w       *csv.Writer
	enabled bool
	wrote   bool
}

func newCSVOnce(w io.Writer, enabled bool) *csvOnce {
	return &csvOnce{w: csv.NewWriter(w), enabled: enabled}
}

func (c *csvOnce) write(rec []string) {
	if !c.enabled {
		return
	}
	if !c.wrote {
		c.w.Write(timelineCSVHeader)
		c.wrote = true
	}
	c.w.Write(rec)
}

func (c *csvOnce) flush() {
	if c.enabled {
		c.w.Flush()
	}
}

func (tr *trace) renderCSV(cw *csvOnce) {
	if tr.Info == nil {
		return
	}
	ivs := tr.intervals()
	for _, ev := range tr.Rounds {
		cw.write([]string{
			strconv.Itoa(tr.Job.Index), tr.Job.Algorithm,
			strconv.Itoa(tr.Job.N), strconv.Itoa(tr.Job.Power), tr.Info.Engine,
			strconv.Itoa(ev.Round), strconv.Itoa(ev.Active),
			strconv.FormatInt(ev.Messages, 10), strconv.FormatInt(ev.Bits, 10),
			strconv.FormatInt(ev.MaxLink, 10), phasesAt(ivs, ev.Round),
		})
	}
}
