// Command svrsim runs the Scalar Vector Runahead evaluation: any table or
// figure of the paper, a full sweep, or a single workload on a single
// machine with detailed statistics.
//
// Usage:
//
//	svrsim list                      # experiments and workloads
//	svrsim run <experiment> [flags]  # regenerate one table/figure
//	svrsim all [flags]               # regenerate everything
//	svrsim workload <name> [flags]   # one workload, one machine, details
//	svrsim disasm <workload>         # kernel disassembly
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
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
	case "workload":
		return cmdWorkload(w, args)
	case "metrics":
		return cmdMetrics(w, args)
	case "disasm":
		return cmdDisasm(w, args)
	case "trace":
		return cmdTrace(w, args)
	case "timeline":
		return cmdTimeline(w, args)
	case "compare":
		return cmdCompare(w, args)
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
  svrsim workload <name> [flags]   simulate one workload in detail
  svrsim metrics <name> [flags]    full metric registry of one run
  svrsim disasm <workload>         print a kernel's assembly
  svrsim trace <workload> [flags]  dump pipeline + runahead events
  svrsim timeline <workload> [fl.] export a traced window as a Perfetto timeline
  svrsim compare <workload>        one workload on every machine, side by side
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

timeline flags:
  -o F               output path, - for stdout (default trace.json)
  -format F          chrome (Perfetto-loadable JSON) or jsonl
  -skip / -window    position the traced window; -n sets SVR vector length

journal flags:
  -trace F           also render the journal as a Chrome/Perfetto grid trace at F

metrics flags:
  -core K            machine: inorder, imp, ooo, svr (default svr)
  -n N               SVR vector length (default 16)
  -format F          output: table, prom (Prometheus text), json
  -quick / -warmup / -measure as above

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

func expFlags(args []string) (sim.ExpParams, []string, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	csvF := fs.Bool("csv", false, "emit tables as CSV")
	jsonF := fs.Bool("json", false, "emit reports as JSON")
	metricsF := fs.Bool("metrics", false, "emit reports as JSON with per-cell metric snapshots")
	coldF := fs.Bool("cold", false, "disable the memoized run cache")
	g := addGridFlags(fs)
	tsF := fs.String("timeseries", "", "write per-interval counter samples of every cell to this CSV")
	sampleF := fs.Uint64("sample", 100_000, "sampling interval in instructions (with -timeseries)")
	journalF := fs.String("journal", "", "stream the scheduler lifecycle journal (JSONL) to this file")
	gridtraceF := fs.String("gridtrace", "", "write a Chrome/Perfetto trace of the scheduler run to this file")
	if err := fs.Parse(args); err != nil {
		return sim.ExpParams{}, nil, err
	}
	pp, wls, err := g.params()
	if err != nil {
		return sim.ExpParams{}, nil, err
	}
	for _, name := range wls {
		if _, err := lookupWorkload(name); err != nil {
			return sim.ExpParams{}, nil, err
		}
	}
	p := sim.ExpParams{Params: pp, Workloads: wls}
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
	return p, fs.Args(), nil
}

// csvMode / jsonMode switch run/all output format; metricsMode adds
// per-cell metric snapshots to the JSON; coldMode disables the run cache;
// timeseriesPath collects per-cell interval samples into a CSV (all set
// by expFlags).
var csvMode, jsonMode, metricsMode, coldMode bool
var timeseriesPath, journalPath, gridtracePath string

func printReport(w io.Writer, r *sim.Report) error {
	if jsonMode {
		blob, err := r.JSON()
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
// the per-cell hook and the periodic ticker.
var progressMu sync.Mutex

// statusSuffix renders the live scheduler rate/ETA tail of the progress
// line, empty until the scheduler has something to project from.
func statusSuffix() string {
	st := sim.CurrentStatus()
	if !st.Active || st.Rate <= 0 {
		return ""
	}
	s := fmt.Sprintf(", %.1fM instr/s", st.Rate/1e6)
	if st.ETA > 0 {
		s += fmt.Sprintf(", ETA %s", st.ETA.Round(time.Second))
	}
	return s
}

// progressPrinter reports scheduler progress on stderr as experiments
// run: cells completed, served from cache, remaining, and the live
// instruction rate / ETA. curExp names the experiment whose matrix is in
// flight.
func progressPrinter(curExp *string) func(sim.CellEvent) {
	cached := 0
	return func(ev sim.CellEvent) {
		if ev.Done == 1 {
			cached = 0
		}
		if ev.Cached {
			cached++
		}
		progressMu.Lock()
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells (%d cached, %d remaining%s)",
			*curExp, ev.Done, ev.Cells, cached, ev.Cells-ev.Done, statusSuffix())
		if ev.Done == ev.Cells {
			fmt.Fprintln(os.Stderr)
		}
		progressMu.Unlock()
	}
}

// startProgressTicker redraws a scheduler-state line every couple of
// seconds so long cells still show liveness (the per-cell hook only fires
// on completion). The returned stop function ends the goroutine.
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
					*curExp, st.Done, st.Cells, st.Queued, st.Building, ckpt, st.Running, statusSuffix())
				progressMu.Unlock()
			}
		}
	}()
	return func() { close(stop) }
}

// applyRunFlags activates -cold, -timeseries, the journal and progress
// reporting for run/all, and routes the matrices through the shared
// scheduler core; the returned cleanup restores the process-wide state.
func applyRunFlags(curExp *string) func() {
	scheduler()
	prevCache := true
	if coldMode {
		prevCache = sim.SetRunCacheEnabled(false)
	}
	prevMetrics := sim.SetCellMetrics(metricsMode)
	prevSeries := sim.SetCellSeries(timeseriesPath != "")
	sim.SetProgressHook(progressPrinter(curExp))
	stopTicker := startProgressTicker(curExp)
	stopJournal := startRunJournal()
	return func() {
		stopJournal()
		stopTicker()
		sim.SetProgressHook(nil)
		sim.SetCellSeries(prevSeries)
		sim.SetCellMetrics(prevMetrics)
		if coldMode {
			sim.SetRunCacheEnabled(prevCache)
		}
	}
}

// startRunJournal installs the scheduler lifecycle journal for -journal
// and -gridtrace: streaming JSONL to the journal file, capturing events
// in memory when a trace will be rendered. The returned stop uninstalls
// the journal, writes the trace, and flushes everything. With neither
// flag set it installs nothing — the observability-off default, whose
// stdout is byte-identical to a run without these flags.
func startRunJournal() func() {
	if journalPath == "" && gridtracePath == "" {
		return func() {}
	}
	cfg := grid.JournalConfig{}
	if gridtracePath != "" {
		cfg.Capture = -1 // the trace needs the whole stream
	}
	var jf *os.File
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: journal: %v\n", err)
		} else {
			jf = f
			cfg.Writer = f
		}
	}
	if cfg.Writer == nil && cfg.Capture == 0 {
		return func() {} // journal file failed and no trace wanted
	}
	jn := grid.NewJournal(cfg)
	grid.SetJournal(jn)
	return func() {
		grid.SetJournal(nil)
		if gridtracePath != "" {
			if f, err := os.Create(gridtracePath); err != nil {
				fmt.Fprintf(os.Stderr, "svrsim: gridtrace: %v\n", err)
			} else {
				if err := grid.WriteTrace(f, jn.Events()); err != nil {
					fmt.Fprintf(os.Stderr, "svrsim: gridtrace: %v\n", err)
				}
				f.Close()
			}
		}
		if err := jn.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: journal: %v\n", err)
		}
		if jf != nil {
			jf.Close()
		}
	}
}

// writeSeriesCSV renders collected per-cell time series as one CSV with
// label/workload prefix columns, for -timeseries.
func writeSeriesCSV(path string, cells []sim.CellSeries) error {
	if len(cells) == 0 {
		return fmt.Errorf("timeseries: no cells produced a series (did every cell come from the cache?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cells[0].Series.WriteCSVHeader(f, "label", "workload"); err != nil {
		return err
	}
	for _, c := range cells {
		if err := c.Series.WriteCSVRows(f, c.Label, c.Workload); err != nil {
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

func cmdRun(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("run: missing experiment id")
	}
	id := args[0]
	p, _, err := expFlags(args[1:])
	if err != nil {
		return err
	}
	e, err := sim.GetExperiment(id)
	if err != nil {
		return err
	}
	cleanup := applyRunFlags(&id)
	defer cleanup()
	r := e.Run(p)
	if err := printReport(w, r); err != nil {
		return err
	}
	if timeseriesPath != "" {
		return writeSeriesCSV(timeseriesPath, r.CellSeries)
	}
	return nil
}

func cmdAll(w io.Writer, args []string) error {
	p, _, err := expFlags(args)
	if err != nil {
		return err
	}
	var curExp string
	cleanup := applyRunFlags(&curExp)
	defer cleanup()
	var seriesCells []sim.CellSeries
	if jsonMode {
		var blobs []json.RawMessage
		for _, e := range sim.Experiments() {
			curExp = e.ID
			r := e.Run(p)
			blob, err := r.JSON()
			if err != nil {
				return err
			}
			blobs = append(blobs, blob)
			seriesCells = append(seriesCells, r.CellSeries...)
		}
		out, err := json.MarshalIndent(blobs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", out)
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
	if timeseriesPath != "" {
		if err := writeSeriesCSV(timeseriesPath, seriesCells); err != nil {
			return err
		}
	}
	hits, misses := sim.RunCacheStats()
	if total := hits + misses; total > 0 {
		fmt.Fprintf(os.Stderr, "run cache: %d of %d cells served from cache (%.0f%%)\n",
			hits, total, 100*float64(hits)/float64(total))
	}
	return nil
}

func cmdWorkload(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("workload: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	coreF := fs.String("core", "svr", "core: inorder, imp, ooo, svr")
	n := fs.Int("n", 16, "SVR vector length")
	quickF := fs.Bool("quick", false, "small inputs")
	jsonF := fs.Bool("json", false, "emit the full result record as JSON")
	measure := fs.Uint64("measure", 0, "measured instructions")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	p := sim.DefaultParams()
	if *quickF {
		p = sim.QuickParams()
	}
	if *measure > 0 {
		p.Measure = *measure
	}

	cfg, err := parseCore(*coreF, *n)
	if err != nil {
		return err
	}

	res, err := sim.RunByName(name, cfg, p)
	if err != nil {
		return err
	}
	if *jsonF {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "workload   %s on %s\n", res.Workload, res.Label)
	fmt.Fprintf(w, "instrs     %d\n", res.Instrs)
	fmt.Fprintf(w, "cycles     %d\n", res.Cycles)
	fmt.Fprintf(w, "IPC        %.3f   CPI %.3f\n", res.IPC, res.CPI)
	fmt.Fprintf(w, "CPI stack  %s\n", res.Stack.String())
	fmt.Fprintf(w, "energy     %.2f nJ/instr, core power %.3f W\n",
		res.Energy.NJPerInstr, res.Energy.CorePowerW)
	fmt.Fprintf(w, "DRAM loads demand=%d stride=%d imp=%d svr=%d (writebacks %d)\n",
		res.DRAMLoads[cache.OriginDemand], res.DRAMLoads[cache.OriginStride],
		res.DRAMLoads[cache.OriginIMP], res.DRAMLoads[cache.OriginSVR], res.Writebacks)
	if cfg.Core == sim.SVR {
		s := res.SVRStats
		fmt.Fprintf(w, "SVR        rounds=%d svis=%d scalars=%d timeouts=%d nested=%d retargets=%d chains=%d masked=%d bans=%d\n",
			s.Rounds, s.SVIs, s.Scalars, s.Timeouts, s.NestedAborts, s.Retargets, s.ChainStarts, s.MaskedLanes, s.Bans)
		pf := res.PFStats[cache.OriginSVR]
		fmt.Fprintf(w, "prefetch   issued=%d used=%d evicted-unused=%d accuracy=%.1f%%\n",
			pf.Issued, pf.Used, pf.EvictedUnused, pf.Accuracy()*100)
	}
	if cfg.Core == sim.IMP {
		pf := res.PFStats[cache.OriginIMP]
		fmt.Fprintf(w, "prefetch   issued=%d used=%d evicted-unused=%d accuracy=%.1f%%\n",
			pf.Issued, pf.Used, pf.EvictedUnused, pf.Accuracy()*100)
	}
	return nil
}

// parseCore resolves the -core/-n flag pair of the workload, metrics,
// trace and timeline subcommands with the checks a served job gets:
// grid.ParseConfig names the machine ("svr" takes its vector length
// from -n) and sim.Config.Validate refuses one that cannot be built.
func parseCore(core string, n int) (sim.Config, error) {
	if core == "svr" {
		core = fmt.Sprintf("svr%d", n)
	}
	cfg, err := grid.ParseConfig(core)
	if err != nil {
		return sim.Config{}, err
	}
	return cfg, cfg.Validate()
}

// cmdMetrics runs one workload on one machine and dumps the machine's
// full metric registry — every counter and latency histogram — in the
// requested format.
func cmdMetrics(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("metrics: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	coreF := fs.String("core", "svr", "core: inorder, imp, ooo, svr")
	n := fs.Int("n", 16, "SVR vector length")
	quickF := fs.Bool("quick", false, "small inputs")
	formatF := fs.String("format", "table", "output format: table, prom, json")
	measure := fs.Uint64("measure", 0, "measured instructions")
	warmup := fs.Uint64("warmup", 0, "warmup instructions")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	p := sim.DefaultParams()
	if *quickF {
		p = sim.QuickParams()
	}
	if *measure > 0 {
		p.Measure = *measure
	}
	if *warmup > 0 {
		p.Warmup = *warmup
	}
	cfg, err := parseCore(*coreF, *n)
	if err != nil {
		return err
	}
	res, err := sim.RunByName(name, cfg, p)
	if err != nil {
		return err
	}
	switch *formatF {
	case "table":
		fmt.Fprintf(w, "metrics for %s on %s (%d instrs, %d cycles)\n",
			res.Workload, res.Label, res.Instrs, res.Cycles)
		if lat, ok := res.Metrics.Histograms["lat.demand.mem"]; ok && lat.Count > 0 {
			fmt.Fprintf(w, "demand-load latency (DRAM-served): p50~%.0f p99~%.0f cycles over %d loads\n",
				lat.QuantileEst(0.50), lat.QuantileEst(0.99), lat.Count)
		}
		res.Metrics.WriteTable(w)
	case "prom":
		res.Metrics.WritePrometheus(w)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Workload string
			Label    string
			Metrics  metrics.Snapshot
		}{res.Workload, res.Label, res.Metrics})
	default:
		return fmt.Errorf("unknown format %q (want table, prom, json)", *formatF)
	}
	return nil
}

func cmdCompare(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("compare: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	quickF := fs.Bool("quick", false, "small inputs")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	p := sim.DefaultParams()
	if *quickF {
		p = sim.QuickParams()
	}
	spec, err := workloads.Get(name)
	if err != nil {
		return err
	}
	cfgs := []sim.Config{
		sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP),
		sim.MachineConfig(sim.OoO), sim.SVRConfig(16), sim.SVRConfig(64),
	}
	// One grid job on the shared scheduler core: the five machines run
	// in parallel and memoize into the artifact store like any other
	// tenant's cells.
	rs := scheduler().RunMatrix(cfgs, []workloads.Spec{spec}, p)
	t := stats.NewTable("machine", "CPI", "speedup", "nJ/instr", "core W", "DRAM loads")
	chart := stats.NewBarChart("speedup over in-order", "x")
	var base sim.Result
	for i, cfg := range cfgs {
		res, ok := rs.Get(cfg.Label, name)
		if !ok {
			return fmt.Errorf("compare: missing cell %s/%s", cfg.Label, name)
		}
		if i == 0 {
			base = res
		}
		var dram int64
		for _, v := range res.DRAMLoads {
			dram += v
		}
		sp := base.CPI / res.CPI
		t.AddRow(cfg.Label,
			fmt.Sprintf("%.2f", res.CPI),
			fmt.Sprintf("%.2fx", sp),
			fmt.Sprintf("%.2f", res.Energy.NJPerInstr),
			fmt.Sprintf("%.3f", res.Energy.CorePowerW),
			fmt.Sprintf("%d", dram))
		chart.Add(cfg.Label, sp)
	}
	fmt.Fprintf(w, "%s on every machine:\n%s\n%s", name, t, chart)
	return nil
}

func cmdTrace(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("trace: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	events := fs.Int("events", 120, "events to retain")
	skip := fs.Uint64("skip", 20_000, "instructions to run before tracing")
	window := fs.Uint64("window", 2_000, "instructions to trace")
	n := fs.Int("n", 16, "SVR vector length")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *events < 1 {
		return fmt.Errorf("trace: -events %d, want at least 1", *events)
	}
	spec, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	cfg, err := parseCore("svr", *n)
	if err != nil {
		return err
	}
	ring := trace.NewRing(*events)
	traced, err := traceWindow(spec, cfg, *skip, *window, ring)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace of %s (SVR-%d), %d instructions after skipping %d:\n\n",
		name, *n, traced, *skip)
	if err := ring.Dump(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwindow summary: %s (%d events total)\n", ring.Summary(), ring.Total())
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
