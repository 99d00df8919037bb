// Command svrsim runs the Scalar Vector Runahead evaluation: any table or
// figure of the paper, a full sweep, or a single workload on one or more
// machines with detailed statistics.
//
// Usage:
//
//	svrsim list                      # experiments and workloads
//	svrsim run <experiment> [flags]  # regenerate one table/figure
//	svrsim all [flags]               # regenerate everything
//	svrsim cell <workload> [flags]   # one workload, some machines, details
//	svrsim timeline <workload> [fl.] # one traced window: Perfetto, JSONL or text
//	svrsim disasm <workload>         # kernel disassembly
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	err := dispatch(os.Stdout, os.Args[1], os.Args[2:])
	if err == errUnknownCommand {
		fmt.Fprintf(os.Stderr, "svrsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svrsim:", err)
		os.Exit(1)
	}
}

// errUnknownCommand signals main to print usage and exit 2.
var errUnknownCommand = fmt.Errorf("unknown command")

// dispatch routes a subcommand; all output goes to w (tests inject a
// buffer).
func dispatch(w io.Writer, cmd string, args []string) error {
	switch cmd {
	case "list":
		return cmdList(w)
	case "run":
		return cmdRun(w, args)
	case "all":
		return cmdAll(w, args)
	case "cell":
		return cmdCell(w, args)
	case "disasm":
		return cmdDisasm(w, args)
	case "timeline":
		return cmdTimeline(w, args)
	case "journal":
		return cmdJournal(w, args)
	case "serve":
		return cmdServe(w, args)
	case "version", "-v", "--version":
		return cmdVersion(w)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	return errUnknownCommand
}

func usage() {
	fmt.Fprint(os.Stderr, `svrsim — Scalar Vector Runahead (MICRO 2024) reproduction

  svrsim list                      experiments and workloads
  svrsim run <experiment> [flags]  regenerate one table/figure
  svrsim all [flags]               regenerate every experiment
  svrsim cell <workload> [flags]   simulate one workload on one or more machines
  svrsim disasm <workload>         print a kernel's assembly
  svrsim timeline <workload> [fl.] export a traced window: Perfetto, JSONL or text
  svrsim journal <file> [flags]    validate a lifecycle journal, render its grid trace
  svrsim serve [flags]             multi-tenant grid service over HTTP/JSON
  svrsim version                   module version and build metadata
  svrsim help                      this text

run/all flags:
  -quick             small inputs and short windows
  -scale S           window preset: quick, default, or paper (multi-region sampled)
  -csv               emit tables as CSV for plotting
  -json              emit reports as JSON (values, tables, scheduler counters)
  -metrics           emit reports as JSON with every cell's metric snapshot
  -cold              disable the memoized run cache (re-simulate every cell)
  -workloads a,b,c   restrict to named workloads
  -measure N         measured instructions per run
  -warmup N          warmup instructions per run
  -ff N              warmed functional fast-forward before each region
  -regions N         detailed regions per cell, stitched by fast-forward
  -ckpt              swap detailed warmup for a shared fast-forward checkpoint
  -timeseries F      sample every cell's counters into a per-interval CSV at F
  -sample N          sampling interval in instructions (default 100000)
  -journal F         stream the scheduler lifecycle journal (JSONL) to F
  -gridtrace F       export the whole run as a Chrome/Perfetto trace of the
                     scheduler itself (workers, cells, phases, artifact flows)

cell flags:
  -config a,b,c      machines: inorder, imp, ooo, svrN (default svr16)
  -format F          summary (default); compare (table, speedup over the
                     first config); metrics (registry table); prom
                     (Prometheus text, one config); json (each Result)
  -quick, -scale, -measure, -warmup, -ff, -regions, -ckpt as for run/all

timeline flags:
  -o F               output path, - for stdout (default trace.json)
  -format F          chrome (Perfetto-loadable JSON), jsonl, or text
                     (the last -events N events, default 120, and a summary)
  -skip / -window    position the traced window; -n sets SVR vector length

journal flags:
  -trace F           also render the journal as a Chrome/Perfetto grid trace at F

serve flags:
  -addr A            listen address (default :8080)
  -workers N         cell worker pool size (default GOMAXPROCS)
  -queue N           max queued cells across all jobs (default 4096)
  -state F           queue-state file restored on start, persisted on
                     SIGINT/SIGTERM shutdown (default svrsim-state.json)
  -journal F         stream the scheduler lifecycle journal (JSONL) to F
serve endpoints:
  POST /api/jobs               submit a grid ({"Configs":["svr16",...],
                               "Workloads":[...], "Preset":"quick", "Priority":N})
  GET  /api/jobs[/{id}]        list jobs / poll one job
  GET  /api/jobs/{id}/results  stream per-cell results (NDJSON; ?format=sse for SSE)
  GET  /api/jobs/{id}/trace    Chrome/Perfetto trace of the job's scheduling
  POST /api/jobs/{id}/cancel   drop queued cells (running cells finish)
  POST /api/jobs/{id}/resume   re-enqueue a canceled job's remainder
  GET  /api/status             scheduler + queue + jobs + artifact store JSON
  GET  /metrics                Prometheus text format
`)
}

func expFlags(args []string) (sim.ExpParams, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	csvF := fs.Bool("csv", false, "emit tables as CSV")
	jsonF := fs.Bool("json", false, "emit reports as JSON")
	metricsF := fs.Bool("metrics", false, "emit reports as JSON with per-cell metric snapshots")
	coldF := fs.Bool("cold", false, "disable the memoized run cache")
	g := addGridFlags(fs)
	wlsF := fs.String("workloads", "", "comma-separated workload filter")
	tsF := fs.String("timeseries", "", "write per-interval counter samples of every cell to this CSV")
	sampleF := fs.Uint64("sample", 100_000, "sampling interval in instructions (with -timeseries)")
	journalF := fs.String("journal", "", "stream the scheduler lifecycle journal (JSONL) to this file")
	gridtraceF := fs.String("gridtrace", "", "write a Chrome/Perfetto trace of the scheduler run to this file")
	if err := fs.Parse(args); err != nil {
		return sim.ExpParams{}, err
	}
	pp, err := g.params()
	if err != nil {
		return sim.ExpParams{}, err
	}
	p := sim.ExpParams{Params: pp}
	if *wlsF != "" {
		p.Workloads = strings.Split(*wlsF, ",")
	}
	for _, name := range p.Workloads {
		if _, err := lookupWorkload(name); err != nil {
			return sim.ExpParams{}, err
		}
	}
	csvMode = *csvF
	jsonMode = *jsonF || *metricsF // -metrics is JSON output with snapshots
	metricsMode = *metricsF
	coldMode = *coldF
	timeseriesPath = *tsF
	journalPath = *journalF
	gridtracePath = *gridtraceF
	if timeseriesPath != "" {
		p.SampleEvery = *sampleF
	}
	// A served job with this window would be refused; so is the command.
	return p, p.Validate()
}

// csvMode / jsonMode switch run/all output format; metricsMode adds
// per-cell metric snapshots to the JSON; coldMode disables the run cache;
// timeseriesPath collects per-cell interval samples into a CSV (all set
// by expFlags).
var csvMode, jsonMode, metricsMode, coldMode bool
var timeseriesPath, journalPath, gridtracePath string

// reportJSON renders r as JSON; its per-cell metric snapshots ride along
// only under -metrics.
func reportJSON(r *sim.Report) ([]byte, error) {
	if !metricsMode {
		r.CellMetrics = nil
	}
	return r.JSON()
}

func printReport(w io.Writer, r *sim.Report) error {
	if jsonMode {
		blob, err := reportJSON(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", blob)
		return nil
	}
	if csvMode {
		fmt.Fprint(w, r.CSV())
		return nil
	}
	fmt.Fprint(w, r)
	return nil
}

// progressMu serializes the \r-overwritten stderr progress line between
// the per-cell subscriber and the periodic ticker.
var progressMu sync.Mutex

// statusSuffix renders the live scheduler rate/ETA tail of the progress
// line, empty until the scheduler has something to project from.
func statusSuffix(st sim.GridStatus) string {
	if !st.Active || st.Rate <= 0 {
		return ""
	}
	s := fmt.Sprintf(", %.1fM instr/s", st.Rate/1e6)
	if st.ETA > 0 {
		s += fmt.Sprintf(", ETA %s", st.ETA.Round(time.Second))
	}
	return s
}

// progressLine reports scheduler progress on stderr as experiments run,
// subscribed to the event stream: at each finished cell it reads the
// grid status, which has folded that cell in already, and prints the
// cells completed, served from cache and remaining, and the live
// instruction rate / ETA. curExp names the experiment whose matrix is in
// flight.
func progressLine(curExp *string) func(sim.Event) {
	return func(ev sim.Event) {
		if ev.Kind != sim.EvCellFinish {
			return
		}
		st := sim.CurrentStatus()
		progressMu.Lock()
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells (%d cached, %d remaining%s)",
			*curExp, st.Done, st.Cells, st.Cached, st.Cells-st.Done, statusSuffix(st))
		if st.Done == st.Cells {
			fmt.Fprintln(os.Stderr)
		}
		progressMu.Unlock()
	}
}

// startProgressTicker redraws a scheduler-state line every couple of
// seconds so long cells still show liveness (the per-cell line only
// moves when a cell finishes). The returned stop function ends the
// goroutine.
func startProgressTicker(curExp *string) func() {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st := sim.CurrentStatus()
				if !st.Active {
					continue
				}
				ckpt := ""
				if st.Checkpointing > 0 {
					ckpt = fmt.Sprintf(", %d checkpointing", st.Checkpointing)
				}
				if st.Recording > 0 {
					ckpt += fmt.Sprintf(", %d recording", st.Recording)
				}
				if st.Cohorts > 0 {
					ckpt += fmt.Sprintf(", %d cohorts (%.1f cells/cohort)",
						st.Cohorts, float64(st.CohortCells)/float64(st.Cohorts))
				}
				progressMu.Lock()
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d done (%d queued, %d building%s, %d running%s)",
					*curExp, st.Done, st.Cells, st.Queued, st.Building, ckpt, st.Running, statusSuffix(st))
				progressMu.Unlock()
			}
		}
	}()
	return func() { close(stop) }
}

// runOutput is what applyRunFlags set up for one run or all command.
type runOutput struct {
	series *os.File // the -timeseries CSV, nil without the flag
	stop   func() error
}

// applyRunFlags creates the -journal, -gridtrace and -timeseries files,
// so that a path that cannot be written fails before any cell runs,
// then activates -cold, the journal and progress reporting for run/all
// and routes the matrices through the shared scheduler core. The
// returned stop writes the grid trace, closes every file and restores
// the process-wide state.
func applyRunFlags(curExp *string) (*runOutput, error) {
	var files [3]*os.File // journal, grid trace, time series
	for i, path := range []string{journalPath, gridtracePath, timeseriesPath} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			closeAll(files[:])
			return nil, err
		}
		files[i] = f
	}
	scheduler()
	prevCache := true
	if coldMode {
		prevCache = sim.SetRunCacheEnabled(false)
	}
	stopProgress := sim.Subscribe(progressLine(curExp))
	stopTicker := startProgressTicker(curExp)
	stopJournal := startRunJournal(files[0], files[1])
	return &runOutput{series: files[2], stop: func() error {
		err := stopJournal()
		stopTicker()
		stopProgress()
		if coldMode {
			sim.SetRunCacheEnabled(prevCache)
		}
		return errors.Join(err, closeAll(files[:]))
	}}, nil
}

// closeAll closes every open file of files.
func closeAll(files []*os.File) error {
	var errs []error
	for _, f := range files {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(errs...)
}

// startRunJournal installs the scheduler lifecycle journal for -journal
// and -gridtrace: streaming JSONL to jf, capturing events in memory when
// a trace will be rendered to tf. The returned stop uninstalls the
// journal, writes the trace and flushes the stream. With neither file it
// installs nothing — the observability-off default, whose stdout is
// byte-identical to a run without these flags.
func startRunJournal(jf, tf *os.File) func() error {
	if jf == nil && tf == nil {
		return func() error { return nil }
	}
	cfg := grid.JournalConfig{}
	if jf != nil {
		cfg.Writer = jf
	}
	if tf != nil {
		cfg.Capture = -1 // the trace needs the whole stream
	}
	jn := grid.NewJournal(cfg)
	grid.SetJournal(jn)
	return func() error {
		grid.SetJournal(nil)
		var err error
		if tf != nil {
			err = grid.WriteTrace(tf, jn.Events())
		}
		return errors.Join(err, jn.Close())
	}
}

// writeSeries renders collected per-cell time series as one CSV with
// label/workload prefix columns into the -timeseries file, if any.
func (o *runOutput) writeSeries(cells []sim.CellSeries) error {
	if o.series == nil {
		return nil
	}
	if len(cells) == 0 {
		return fmt.Errorf("timeseries: no cells produced a series (did every cell come from the cache?)")
	}
	if err := cells[0].Series.WriteCSVHeader(o.series, "label", "workload"); err != nil {
		return err
	}
	for _, c := range cells {
		if err := c.Series.WriteCSVRows(o.series, c.Label, c.Workload); err != nil {
			return err
		}
	}
	return nil
}

func cmdList(w io.Writer) error {
	fmt.Fprintln(w, "experiments:")
	for _, e := range sim.Experiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "\nworkloads (evaluation set):")
	for _, s := range workloads.Evaluation() {
		fmt.Fprintf(w, "  %-10s %-6s %s\n", s.Name, s.Group, s.Desc)
	}
	fmt.Fprintln(w, "\nworkloads (SPEC proxies, fig14):")
	fmt.Fprintln(w, "  "+strings.Join(workloads.SPECNames(), " "))
	return nil
}

func cmdRun(w io.Writer, args []string) (err error) {
	if len(args) < 1 {
		return fmt.Errorf("run: missing experiment id")
	}
	id := args[0]
	p, err := expFlags(args[1:])
	if err != nil {
		return err
	}
	e, err := sim.GetExperiment(id)
	if err != nil {
		return err
	}
	out, err := applyRunFlags(&id)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.stop()) }()
	r := e.Run(p)
	if err := printReport(w, r); err != nil {
		return err
	}
	return out.writeSeries(r.CellSeries)
}

func cmdAll(w io.Writer, args []string) (err error) {
	p, err := expFlags(args)
	if err != nil {
		return err
	}
	var curExp string
	out, err := applyRunFlags(&curExp)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.stop()) }()
	var seriesCells []sim.CellSeries
	if jsonMode {
		var blobs []json.RawMessage
		for _, e := range sim.Experiments() {
			curExp = e.ID
			r := e.Run(p)
			blob, err := reportJSON(r)
			if err != nil {
				return err
			}
			blobs = append(blobs, blob)
			seriesCells = append(seriesCells, r.CellSeries...)
		}
		all, err := json.MarshalIndent(blobs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", all)
	} else {
		for _, e := range sim.Experiments() {
			curExp = e.ID
			r := e.Run(p)
			if err := printReport(w, r); err != nil {
				return err
			}
			fmt.Fprintln(w)
			seriesCells = append(seriesCells, r.CellSeries...)
		}
	}
	if err := out.writeSeries(seriesCells); err != nil {
		return err
	}
	hits, misses := sim.RunCacheStats()
	if total := hits + misses; total > 0 {
		fmt.Fprintf(os.Stderr, "run cache: %d of %d cells served from cache (%.0f%%)\n",
			hits, total, 100*float64(hits)/float64(total))
	}
	return nil
}

func cmdDisasm(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("disasm: missing workload name")
	}
	spec, err := workloads.Get(args[0])
	if err != nil {
		return err
	}
	inst := spec.Build(workloads.TinyScale())
	fmt.Fprint(w, inst.Prog.Disasm())
	return nil
}
