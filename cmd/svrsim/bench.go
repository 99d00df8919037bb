package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchBaselineFile is the committed bench baseline.
const benchBaselineFile = "BENCH_BASELINE.json"

// BenchReport is the machine-readable output of `svrsim bench`: the
// throughput of the simulator itself on the experiment grid, used by CI as
// a perf-regression reference (BENCH_BASELINE.json at the repo root is the
// committed baseline).
type BenchReport struct {
	Generated      string  `json:"generated"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Scale          string  `json:"scale"`
	CkptShared     bool    `json:"ckpt_shared,omitempty"`
	Experiments    int     `json:"experiments"`
	Cells          int     `json:"cells"`
	Instrs         uint64  `json:"instructions"`
	WallSeconds    float64 `json:"wall_seconds"`
	CellsPerSec    float64 `json:"cells_per_sec"`
	NSPerInstr     float64 `json:"ns_per_simulated_instr"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	MSPerCell      float64 `json:"wall_ms_per_cell"`

	// Single-cell reference rates, measured apart from the grid so
	// parallelism and build time don't blur them: detailed simulation vs
	// the functional fast-forward loop on the same workload, plain and
	// with functional warming (the skip every paper-scale gap runs).
	DetNSPerInstr    float64 `json:"detailed_ns_per_instr_single_cell"`
	FFNSPerInstr     float64 `json:"ff_ns_per_instr"`
	FFWarmNSPerInstr float64 `json:"ff_warm_ns_per_instr"`
	FFSpeedup        float64 `json:"ff_speedup_vs_detailed"`

	// Execute-once, time-many accounting: how many recording passes
	// the grid ran and how compact the recordings were.
	StreamRecordings    int     `json:"stream_recordings,omitempty"`
	StreamBytes         int64   `json:"stream_bytes,omitempty"`
	StreamBytesPerInstr float64 `json:"stream_bytes_per_instr,omitempty"`

	// Decode-once cohort accounting: how many lockstep cohorts
	// executed, the cells they covered, their mean width (cells stepped
	// per shared decoded batch), and the full width histogram (width →
	// cohorts run at that width), since the mean hides bimodal mixes.
	Cohorts      int            `json:"cohorts,omitempty"`
	CohortCells  int            `json:"cohort_cells,omitempty"`
	CohortWidth  float64        `json:"cohort_width,omitempty"`
	CohortWidths map[string]int `json:"cohort_widths,omitempty"`

	// Phase attribution (populated by -phases): the grid's summed
	// per-cell wall time decomposed by execution phase, and how much of
	// the measured cell wall the attribution covers (should be ~1.0; the
	// remainder is hook/bookkeeping time no phase claimed).
	PhaseSeconds    map[string]float64 `json:"phase_seconds,omitempty"`
	CellWallSeconds float64            `json:"cell_wall_seconds,omitempty"`
	PhaseCoverage   float64            `json:"phase_coverage,omitempty"`
}

// cmdBench runs every experiment cold (run cache disabled, so each cell
// simulates) and reports simulator throughput. Reports go to out as JSON;
// a human summary and the optional baseline diff go to w. The experiment
// reports themselves are discarded — correctness of their content is the
// test suite's job, this command only times them.
func cmdBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outF := fs.String("out", benchBaselineFile, "write the bench report JSON to this file")
	baseF := fs.String("baseline", benchBaselineFile, "prior bench JSON to diff against (informational)")
	cpuF := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memF := fs.String("memprofile", "", "write an allocation profile to this file")
	fullF := fs.Bool("full", false, "paper-scale inputs instead of quick scale")
	phasesF := fs.Bool("phases", false, "report per-phase wall-time attribution of the grid")
	g := addGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	def := sim.QuickParams()
	scale := "quick"
	if *fullF {
		def = sim.DefaultParams()
		scale = "full"
	}
	pp, wls, err := g.params(def)
	if err != nil {
		return err
	}
	p := sim.ExpParams{Params: pp, Workloads: wls}

	scheduler() // route the grid through the shared scheduler core
	prevCache := sim.SetRunCacheEnabled(false)
	defer sim.SetRunCacheEnabled(prevCache)

	var cells int
	var instrs uint64
	var phaseWall sim.PhaseTimes
	var cellWall time.Duration
	sim.SetProgressHook(func(ev sim.CellEvent) {
		cells++
		instrs += ev.Instrs
		phaseWall.AddAll(ev.Phases)
		cellWall += ev.Wall
	})
	defer sim.SetProgressHook(nil)
	rec0 := sim.RecordingStats()
	coh0runs, coh0cells := sim.CohortStats()
	hist0 := sim.CohortWidthHist()

	// Reference rates first, single-threaded and outside the profiled
	// grid window.
	rates, err := measureRates(p.Params)
	if err != nil {
		return err
	}

	if *cpuF != "" {
		f, err := os.Create(*cpuF)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	exps := sim.Experiments()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, e := range exps {
		e.Run(p)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	if *memF != "" {
		f, err := os.Create(*memF)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}

	rep := BenchReport{
		Generated:        start.UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Scale:            scale,
		CkptShared:       *g.ckpt,
		Experiments:      len(exps),
		Cells:            cells,
		Instrs:           instrs,
		WallSeconds:      wall.Seconds(),
		DetNSPerInstr:    rates.det,
		FFNSPerInstr:     rates.ff,
		FFWarmNSPerInstr: rates.ffWarm,
	}
	rec := sim.RecordingStats()
	rep.StreamRecordings = rec.Recordings - rec0.Recordings
	rep.StreamBytes = rec.Bytes - rec0.Bytes
	if di := rec.Instrs - rec0.Instrs; di > 0 {
		rep.StreamBytesPerInstr = float64(rep.StreamBytes) / float64(di)
	}
	runs, ccells := sim.CohortStats()
	rep.Cohorts = runs - coh0runs
	rep.CohortCells = ccells - coh0cells
	if rep.Cohorts > 0 {
		rep.CohortWidth = float64(rep.CohortCells) / float64(rep.Cohorts)
		rep.CohortWidths = make(map[string]int)
		for wdt, n := range sim.CohortWidthHist() {
			if d := n - hist0[wdt]; d > 0 {
				rep.CohortWidths[fmt.Sprintf("%d", wdt)] = d
			}
		}
	}
	if rates.ff > 0 {
		rep.FFSpeedup = rates.det / rates.ff
	}
	if s := wall.Seconds(); s > 0 {
		rep.CellsPerSec = float64(cells) / s
	}
	if instrs > 0 {
		rep.NSPerInstr = float64(wall.Nanoseconds()) / float64(instrs)
		rep.AllocsPerInstr = float64(m1.Mallocs-m0.Mallocs) / float64(instrs)
	}
	if cells > 0 {
		rep.MSPerCell = wall.Seconds() * 1e3 / float64(cells)
	}
	if *phasesF {
		rep.PhaseSeconds = phaseWall.Seconds()
		rep.CellWallSeconds = cellWall.Seconds()
		if cellWall > 0 {
			rep.PhaseCoverage = phaseWall.Total().Seconds() / cellWall.Seconds()
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outF, append(blob, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(w, "bench: %d cells, %d Minstr in %.1fs — %.2f cells/s, %.0f ns/instr, %.3f allocs/instr\n",
		cells, instrs/1e6, wall.Seconds(), rep.CellsPerSec, rep.NSPerInstr, rep.AllocsPerInstr)
	fmt.Fprintf(w, "fast-forward: %.1f ns/instr plain, %.1f ns/instr warmed, vs %.0f ns/instr detailed SVR16 single-cell (%.0fx plain)\n",
		rates.ff, rates.ffWarm, rates.det, rep.FFSpeedup)
	fmt.Fprintf(w, "recordings: %d, %.1f MiB (%.2f B/instr); cohorts: %d covered %d cells (mean width %.1f)\n",
		rep.StreamRecordings, float64(rep.StreamBytes)/(1<<20), rep.StreamBytesPerInstr,
		rep.Cohorts, rep.CohortCells, rep.CohortWidth)

	if *phasesF {
		printPhaseTable(w, phaseWall, cellWall)
	}

	if *baseF != "" {
		if err := printBenchDelta(w, *baseF, rep); err != nil {
			// The diff is informational; a missing or stale baseline must
			// not fail the bench (CI treats this step as non-blocking).
			fmt.Fprintf(w, "bench: baseline diff skipped: %v\n", err)
		}
	}
	return nil
}

// printPhaseTable renders the automated "where grid time goes" breakdown:
// each phase's share of the grid's summed per-cell wall time, plus the
// attribution coverage (how much of the measured wall any phase claimed).
func printPhaseTable(w io.Writer, phases sim.PhaseTimes, cellWall time.Duration) {
	fmt.Fprintf(w, "phase attribution (%.1fs cell wall across the grid):\n", cellWall.Seconds())
	for _, p := range sim.AllPhases() {
		d := phases[p]
		pct := 0.0
		if cellWall > 0 {
			pct = 100 * d.Seconds() / cellWall.Seconds()
		}
		fmt.Fprintf(w, "  %-13s %8.2fs  %5.1f%%\n", p, d.Seconds(), pct)
	}
	if cellWall > 0 {
		fmt.Fprintf(w, "  %-13s %8.2fs  %5.1f%% of wall attributed\n",
			"total", phases.Total().Seconds(), 100*phases.Total().Seconds()/cellWall.Seconds())
	}
}

// singleCellRates are the single-thread ns/instr of one BFS_KR cell's
// phases.
type singleCellRates struct {
	ff, ffWarm, det float64
}

// measureRates times one BFS_KR cell the way a paper-scale region run
// uses it, on one thread: a plain functional fast-forward skips ahead, a
// detailed window runs on the paper's subject machine (SVR16, the modal
// grid configuration) from where the skip landed, and a warmed
// fast-forward follows it, as the gap after every paper-scale region
// does (PaperParams().Warm). Grid-level ns/instr conflates build time
// and parallelism; this is the apples-to-apples rate set behind
// ff_speedup_vs_detailed.
func measureRates(p sim.Params) (singleCellRates, error) {
	var r singleCellRates
	spec, err := workloads.Get("BFS_KR")
	if err != nil {
		return r, err
	}
	inst := spec.Build(p.Scale)
	m, err := sim.NewMachine(sim.SVRConfig(16), inst)
	if err != nil {
		return r, err
	}

	const skip = 2_000_000
	t0 := time.Now()
	if !m.FastForward(skip, false) {
		return r, fmt.Errorf("bench: BFS_KR ended inside the %d-instruction fast-forward", skip)
	}
	r.ff = float64(time.Since(t0).Nanoseconds()) / float64(skip)

	dp := sim.Params{Scale: p.Scale, Warmup: 60_000, Measure: 200_000}
	t1 := time.Now()
	sim.SimulateFrom(m, dp)
	r.det = float64(time.Since(t1).Nanoseconds()) / float64(dp.Warmup+dp.Measure)

	t2 := time.Now()
	if !m.FastForward(skip, true) {
		return r, fmt.Errorf("bench: BFS_KR ended inside the %d-instruction warmed fast-forward", skip)
	}
	r.ffWarm = float64(time.Since(t2).Nanoseconds()) / float64(skip)
	return r, nil
}

// printBenchDelta prints the relative change against a previous report.
func printBenchDelta(w io.Writer, path string, cur BenchReport) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base BenchReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return err
	}
	if base.Scale != cur.Scale {
		return fmt.Errorf("baseline scale %q != current %q", base.Scale, cur.Scale)
	}
	pct := func(now, was float64) string {
		if was == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(now-was)/was)
	}
	fmt.Fprintf(w, "vs %s:\n", path)
	if base.CkptShared != cur.CkptShared {
		fmt.Fprintf(w, "  (warmup modes differ: baseline ckpt_shared=%v, current ckpt_shared=%v)\n",
			base.CkptShared, cur.CkptShared)
	}
	fmt.Fprintf(w, "  wall        %8.1fs -> %8.1fs  (%s)\n", base.WallSeconds, cur.WallSeconds, pct(cur.WallSeconds, base.WallSeconds))
	fmt.Fprintf(w, "  cells/s     %8.2f -> %8.2f  (%s)\n", base.CellsPerSec, cur.CellsPerSec, pct(cur.CellsPerSec, base.CellsPerSec))
	fmt.Fprintf(w, "  ns/instr    %8.0f -> %8.0f  (%s)\n", base.NSPerInstr, cur.NSPerInstr, pct(cur.NSPerInstr, base.NSPerInstr))
	fmt.Fprintf(w, "  allocs/instr%8.3f -> %8.3f  (%s)\n", base.AllocsPerInstr, cur.AllocsPerInstr, pct(cur.AllocsPerInstr, base.AllocsPerInstr))
	// Thinner cohorts cost throughput without any single layer getting
	// slower, so the cohort shape is part of the diff.
	fmt.Fprintf(w, "  cohort width%8.1f -> %8.1f  (cohort cells %d -> %d)\n",
		base.CohortWidth, cur.CohortWidth, base.CohortCells, cur.CohortCells)
	return nil
}
