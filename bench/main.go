// Command bench is the repository benchmark: it runs one workload of the
// simulator (a grid sweep or a served job mix) for a fixed time, checks
// every output it can, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer split — as one JSON object on its last line.
//
//	go run . -workload quick-grid -seed 42 -seconds 30 -trace 0
//	go run . compare A.json B.json
//	go run . golden
//
// Each run happens in fresh child processes of this binary, so process-
// global caches start cold and every workload gets its own set-up time
// and memory. See README.md for the workloads and the metric
// dictionary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(os.Stdout, args[1:])
	case len(args) > 0 && args[0] == "golden":
		err = cmdGolden(os.Stdout, args[1:])
	default:
		err = cmdRun(os.Stdout, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runFlags are the flags of a benchmark run (and of its child processes).
type runFlags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	tiny     bool   // smoke-test sized inputs
	child    string // "" in the parent; "setup", "run" or "golden" in a child
}

func parseRunFlags(args []string) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload to run (default: every workload in turn)")
	fs.Int64Var(&f.seed, "seed", 42, "input seed: workload data and job script")
	fs.Float64Var(&f.seconds, "seconds", 30, "length of the timed region: rounds start while they are expected to end within it")
	fs.IntVar(&f.trace, "trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.BoolVar(&f.tiny, "tiny", false, "tiny inputs and windows, for the smoke test (golden digests do not apply)")
	fs.StringVar(&f.child, "child", "", "internal: run as a child process (setup, run or golden)")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if f.trace != 0 && f.trace != 1 {
		return f, fmt.Errorf("-trace must be 0 or 1, not %d", f.trace)
	}
	if f.seconds <= 0 || f.seconds > 120 {
		return f, fmt.Errorf("-seconds must be in (0, 120], not %g", f.seconds)
	}
	return f, nil
}

func (f runFlags) args(child string, trace int) []string {
	return []string{"-child", child, "-workload", f.workload,
		"-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-tiny=" + strconv.FormatBool(f.tiny)}
}

func cmdRun(w io.Writer, args []string) error {
	f, err := parseRunFlags(args)
	if err != nil {
		return err
	}
	if f.child != "" {
		return childMain(w, f)
	}
	names := []string{f.workload}
	if f.workload == "" {
		names = workloadNames()
	}
	for _, name := range names {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
	}
	for _, name := range names {
		f.workload = name
		line, err := runWorkload(f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printLine(w, name, line)
	}
	return nil
}

// setupSamples is how many cold set-ups one run measures; setup_s is
// their median.
const setupSamples = 3

// childTimeout bounds every child process, so a wedged run still ends
// (with an error and no result) inside the 180-second budget of a run.
const childTimeout = 170 * time.Second

// runWorkload measures one workload in child processes and assembles
// the result line: the end-to-end metrics, or the per-layer ones when
// f.trace is 1.
func runWorkload(f runFlags) (resultLine, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	if f.trace == 0 {
		var setups []float64
		for i := 1; i < setupSamples; i++ {
			rep, err := runChild(ctx, f.args("setup", 0))
			if err != nil {
				return resultLine{}, err
			}
			setups = append(setups, rep.SetupS)
		}
		rep, err := runChild(ctx, f.args("run", 0))
		if err != nil {
			return resultLine{}, err
		}
		rep.Metrics["setup_s"] = median(append(setups, rep.SetupS))
		rep.Notes["setup_s"] = fmt.Sprintf("median of %d cold set-ups", setupSamples)
		return rep.line(endToEnd), nil
	}
	// The traced run's own throughput is perturbed by the hooks, so an
	// untraced run of the same length measures what tracing costs.
	plain, err := runChild(ctx, f.args("run", 0))
	if err != nil {
		return resultLine{}, err
	}
	rep, err := runChild(ctx, f.args("run", 1))
	if err != nil {
		return resultLine{}, err
	}
	if r := rep.Metrics["sim_minstr_per_s"]; r > 0 {
		rep.Metrics["trace.overhead_frac"] = plain.Metrics["sim_minstr_per_s"]/r - 1
	}
	rep.Attempted += plain.Attempted
	rep.Failed += plain.Failed
	rep.Failures = append(plain.Failures, rep.Failures...)
	return rep.line(perLayer), nil
}

// childReport is what a child process prints on its last stdout line.
type childReport struct {
	SetupS    float64
	Attempted int
	Failed    int
	Failures  []string // the first few failure reasons
	Jobs      int      // jobs completed in the timed region
	Metrics   map[string]float64
	Notes     map[string]string // printed next to a metric: sample counts
}

// timing sets metric name to the q-quantile of the sample xs and notes
// the sample count beside it, flagging a percentile with fewer than ten
// samples beyond it.
func (r *childReport) timing(name string, xs []float64, q float64) {
	v, ok := tailPercentile(xs, q)
	r.Metrics[name] = v
	r.Notes[name] = fmt.Sprintf("n=%d", len(xs))
	if !ok {
		r.Notes[name] += fmt.Sprintf(", fewer than 10 beyond p%.0f", 100*q)
	}
}

// runChild runs a child and decodes its report. Set-up time is measured
// from just before the child starts, so it includes process start.
func runChild(ctx context.Context, args []string) (childReport, error) {
	out, start, err := childOutput(ctx, args)
	if err != nil {
		return childReport{}, err
	}
	var rep struct {
		childReport
		ReadyUnixNano int64
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	rep.SetupS = time.Unix(0, rep.ReadyUnixNano).Sub(start).Seconds()
	if rep.Metrics == nil {
		rep.Metrics = map[string]float64{}
	}
	if rep.Notes == nil {
		rep.Notes = map[string]string{}
	}
	return rep.childReport, nil
}

// childOutput runs this binary as a child process with GOMAXPROCS=2 and
// returns the last line it printed and when it was started.
func childOutput(ctx context.Context, args []string) ([]byte, time.Time, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	// A child outlives nothing: if this process is killed, so is it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, start, fmt.Errorf("child %v: %w", args, err)
	}
	return lastLine(out.Bytes()), start, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []string
	jobs     int
	notes    map[string]string
}

func (r childReport) line(defs []metricDef) resultLine {
	l := resultLine{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
		failures:  r.Failures,
		jobs:      r.Jobs,
		notes:     r.Notes,
	}
	for _, d := range defs {
		v := r.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		l.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return l
}

// printLine prints the metrics by name with their units, then the JSON
// result line.
func printLine(w io.Writer, workload string, l resultLine) {
	fmt.Fprintf(w, "%s: %d jobs, %d operations attempted, %d failed\n",
		workload, l.jobs, l.Attempted, l.Failed)
	for _, msg := range l.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
	names := make([]string, 0, len(l.Metrics))
	for n := range l.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := l.Metrics[n]
		note := ""
		if l.notes[n] != "" {
			note = "  (" + l.notes[n] + ")"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	blob, err := json.Marshal(l)
	if err != nil {
		panic(err) // metric values are sanitized finite floats
	}
	fmt.Fprintf(w, "%s\n", blob)
}
