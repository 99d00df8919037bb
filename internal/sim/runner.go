package sim

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"repro/internal/workloads"
)

// This file is the matrix side of the experiment scheduler: a (config ×
// workload) grid is flattened into independent cells and resolved
// through the cell-execution core (cell.go). The default runner resolves
// the grid serially; the CLI and the grid service install a shared
// scheduler through SetMatrixRunner so every subcommand and every
// served job feed one queue and one artifact store. Each simulation is
// deterministic (fixed seeds, no wall-clock inputs), so a cached cell is
// bit-identical to a fresh run and `svrsim all` stops re-simulating the
// standard-configs × evaluation-set grid that Figs 1, 11, 12 and 13
// share.

// CellEvent is delivered to the progress hook after each cell of a
// scheduler run finishes, whether simulated or served from the store.
type CellEvent struct {
	Label    string        // configuration label
	Workload string        // workload name
	Cached   bool          // served resident from the artifact store
	Shared   bool          // joined another caller's in-flight execution
	Replayed bool          // timed from a recorded stream (every simulated cell is)
	Wall     time.Duration // wall time spent on the cell
	Phases   PhaseTimes    // per-phase decomposition of Wall
	Instrs   uint64        // instructions the cell simulated (its Result's window)
	Done     int           // cells finished in the current matrix
	Cells    int           // total cells of the current matrix
}

var progress struct {
	sync.Mutex
	hook func(CellEvent)
}

// SetProgressHook installs fn to observe scheduler progress (nil
// disables). The hook is invoked sequentially, never concurrently.
func SetProgressHook(fn func(CellEvent)) {
	progress.Lock()
	progress.hook = fn
	progress.Unlock()
}

// EmitProgress delivers ev to the installed progress hook. External
// matrix runners (the grid scheduler) call it so CLI progress reporting
// works identically whichever runner executes the grid.
func EmitProgress(ev CellEvent) { emitProgress(ev) }

func emitProgress(ev CellEvent) {
	progress.Lock()
	defer progress.Unlock()
	if progress.hook != nil {
		progress.hook(ev)
	}
}

// Tracker is the live accounting of one in-flight grid: cell states,
// shared-pass production time, instruction throughput. The local matrix
// runner opens one per matrix; the grid service opens one per job. Every
// open tracker feeds the aggregate CurrentStatus view, so status
// surfaces see concurrent jobs as one grid. All methods are nil-safe —
// a nil *Tracker simply drops the accounting (tests, one-off cells).
type Tracker struct {
	mu          sync.Mutex
	start       time.Time
	cells       int
	done        int
	cached      int
	shared      int // of done, joined from another caller's in-flight cell
	replayed    int // of done, cells fed by a recorded stream
	building    int // workers constructing a workload image / machine
	ckpt        int // workers producing a shared fast-forward checkpoint
	recording   int // workers producing a shared stream recording
	running     int // workers inside Simulate
	instrs      uint64
	cohorts     int           // lockstep cohort runs completed
	cohortCells int           // cells those cohorts produced (occupancy numerator)
	ckptWall    time.Duration // completed checkpoint-production wall time
	recWall     time.Duration // completed recording-production wall time
	phaseWall   PhaseTimes    // finished cells' per-phase wall time

	// Sliding instruction-rate window for ETA projection: cumulative
	// instruction samples taken at each cell completion. Cohorts finish
	// cells in batches of up to MaxCohortWidth, so projecting from the
	// completion count sawtooths; a rate window over the recent samples
	// does not (the batch contributes both its instructions and the time
	// it took to produce them).
	samples  [rateSamples]rateSample
	nsamples int // samples written; index i lives at samples[i%rateSamples]
}

// rateSamples bounds the rate window's memory; rateWindowSpan is how far
// back the projection looks.
const (
	rateSamples    = 64
	rateWindowSpan = 20 * time.Second
)

type rateSample struct {
	at     time.Time
	instrs uint64 // cumulative instructions finished at the sample time
}

// rateWindow is the windowed instruction-rate estimate ETA projects
// from: instrs retired over span, with the window ending at last.
type rateWindow struct {
	instrs uint64
	span   time.Duration
	last   time.Time
}

// rateWindowLocked computes the sliding window ending at the newest
// sample: the base is the most recent sample at least rateWindowSpan
// old (or the oldest retained one). Caller holds t.mu.
func (t *Tracker) rateWindowLocked(now time.Time) rateWindow {
	newest := t.samples[(t.nsamples-1)%rateSamples]
	oldest := 0
	if t.nsamples > rateSamples {
		oldest = t.nsamples - rateSamples
	}
	base := newest
	for i := t.nsamples - 1; i >= oldest; i-- {
		base = t.samples[i%rateSamples]
		if now.Sub(base.at) >= rateWindowSpan {
			break
		}
	}
	return rateWindow{
		instrs: newest.instrs - base.instrs,
		span:   newest.at.Sub(base.at),
		last:   newest.at,
	}
}

// trackers is the registry of open trackers that CurrentStatus folds
// into the aggregate grid view.
var trackers = struct {
	sync.Mutex
	m map[*Tracker]struct{}
}{m: map[*Tracker]struct{}{}}

// NewTracker opens a tracker for a grid of the given cell count and
// registers it with the status surfaces. Close it when the grid ends.
func NewTracker(cells int) *Tracker {
	t := &Tracker{start: time.Now(), cells: cells}
	t.samples[0] = rateSample{at: t.start}
	t.nsamples = 1
	trackers.Lock()
	trackers.m[t] = struct{}{}
	trackers.Unlock()
	return t
}

// Close unregisters the tracker from the status surfaces.
func (t *Tracker) Close() {
	if t == nil {
		return
	}
	trackers.Lock()
	delete(trackers.m, t)
	trackers.Unlock()
}

// phase moves a worker between the building and running states.
func (t *Tracker) phase(building, running int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.building += building
	t.running += running
	t.mu.Unlock()
}

// ckptBegin moves the producing worker from "building" (set by the cell
// core) to the distinct "checkpointing" phase; ckptEnd moves it back and
// banks the production time for ETA correction.
func (t *Tracker) ckptBegin() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.building--
	t.ckpt++
	t.mu.Unlock()
}

func (t *Tracker) ckptEnd(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ckpt--
	t.building++
	t.ckptWall += d
	t.mu.Unlock()
}

// recBegin/recEnd are the recording-pass analogue of ckptBegin/ckptEnd.
func (t *Tracker) recBegin() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.building--
	t.recording++
	t.mu.Unlock()
}

func (t *Tracker) recEnd(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recording--
	t.building++
	t.recWall += d
	t.mu.Unlock()
}

// CellDone banks one finished cell into the tracker.
func (t *Tracker) CellDone(out CellOutcome, instrs uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	if out.Cached {
		t.cached++
	}
	if out.Shared {
		t.shared++
	}
	if out.Replayed {
		t.replayed++
	}
	t.instrs += instrs
	t.phaseWall.AddAll(out.Phases)
	t.samples[t.nsamples%rateSamples] = rateSample{at: time.Now(), instrs: t.instrs}
	t.nsamples++
	t.mu.Unlock()
}

// CohortDone banks one finished lockstep cohort of k produced cells.
func (t *Tracker) CohortDone(k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cohorts++
	t.cohortCells += k
	t.mu.Unlock()
}

// GridStatus is a point-in-time snapshot of the scheduler: one open grid
// or the aggregate over every concurrently open grid.
type GridStatus struct {
	Active        bool          // at least one grid is in flight
	Cells         int           // total cells of the open grids
	Queued        int           // not yet picked up by a worker
	Building      int           // constructing workload image / machine
	Checkpointing int           // producing a shared fast-forward checkpoint
	Recording     int           // producing a shared stream recording
	Running       int           // simulating
	Done          int           // finished (simulated or served from the store)
	Cached        int           // of Done, served resident from the artifact store
	Shared        int           // of Done, joined from another job's in-flight cell
	Replayed      int           // of Done, fed by a recorded stream
	Cohorts       int           // lockstep cohort runs completed
	CohortCells   int           // cells those cohorts produced (occupancy = CohortCells/Cohorts)
	Instrs        uint64        // instructions simulated by finished cells
	StreamBytes   int64         // encoded stream bytes produced so far (process-wide)
	Elapsed       time.Duration // since the earliest open grid started
	CkptWall      time.Duration // wall time spent producing checkpoints so far
	RecWall       time.Duration // wall time spent producing recordings so far
	PhaseWall     PhaseTimes    // finished cells' wall time decomposed by phase
	Rate          float64       // instructions per wall-second so far
	ETA           time.Duration // projected time to finish, 0 if unknown
}

// Status snapshots one tracker.
func (t *Tracker) Status() GridStatus {
	if t == nil {
		return GridStatus{}
	}
	now := time.Now()
	t.mu.Lock()
	s := GridStatus{
		Active: true, Cells: t.cells,
		Building: t.building, Checkpointing: t.ckpt,
		Recording: t.recording, Running: t.running,
		Done: t.done, Cached: t.cached, Shared: t.shared,
		Replayed: t.replayed, Instrs: t.instrs,
		Cohorts: t.cohorts, CohortCells: t.cohortCells,
		CkptWall: t.ckptWall, RecWall: t.recWall,
		PhaseWall: t.phaseWall,
		Elapsed:   now.Sub(t.start),
	}
	win := t.rateWindowLocked(now)
	t.mu.Unlock()
	finishStatus(&s, win, now)
	return s
}

// CurrentStatus aggregates every open tracker into one scheduler
// snapshot for status displays. With a single grid in flight (the CLI's
// single-shot subcommands) it is that grid's status; under the grid
// service it folds all concurrently running jobs together.
func CurrentStatus() GridStatus {
	now := time.Now()
	trackers.Lock()
	var s GridStatus
	var win rateWindow
	var earliest time.Time
	for t := range trackers.m {
		t.mu.Lock()
		s.Active = true
		s.Cells += t.cells
		s.Done += t.done
		s.Cached += t.cached
		s.Shared += t.shared
		s.Replayed += t.replayed
		s.Cohorts += t.cohorts
		s.CohortCells += t.cohortCells
		s.Building += t.building
		s.Checkpointing += t.ckpt
		s.Recording += t.recording
		s.Running += t.running
		s.Instrs += t.instrs
		s.CkptWall += t.ckptWall
		s.RecWall += t.recWall
		s.PhaseWall.AddAll(t.phaseWall)
		tw := t.rateWindowLocked(now)
		win.instrs += tw.instrs
		if tw.span > win.span {
			win.span = tw.span
		}
		if tw.last.After(win.last) {
			win.last = tw.last
		}
		if earliest.IsZero() || t.start.Before(earliest) {
			earliest = t.start
		}
		t.mu.Unlock()
	}
	trackers.Unlock()
	if s.Active {
		s.Elapsed = now.Sub(earliest)
	}
	finishStatus(&s, win, now)
	return s
}

// finishStatus derives the queue depth, rate and ETA shared by the
// per-tracker and aggregate snapshots.
func finishStatus(s *GridStatus, win rateWindow, now time.Time) {
	s.StreamBytes = RecordingStats().Bytes
	s.Queued = s.Cells - s.Done - s.Building - s.Checkpointing - s.Recording - s.Running
	if s.Queued < 0 {
		s.Queued = 0
	}
	if !s.Active {
		s.Elapsed = 0
		return
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.Rate = float64(s.Instrs) / sec
	}
	if s.Done > 0 && s.Done < s.Cells {
		s.ETA = projectETA(s, win, now)
	}
}

// projectETA projects time-to-finish from the sliding instruction-rate
// window: remaining work (the mean instructions per finished cell times
// the unfinished count) over the windowed rate, minus the time already
// elapsed since the window's last completion. Projecting from the rate
// window instead of the completion count keeps the estimate steady when
// cohorts land up to MaxCohortWidth cells at once — the batch moves the
// numerator and denominator together. The floor is one second: an
// in-flight grid never reports a zero (= unknown) ETA.
func projectETA(s *GridStatus, win rateWindow, now time.Time) time.Duration {
	if win.span <= 0 || win.instrs == 0 {
		// No measured window yet (first cells still in flight): fall
		// back to the completion-count projection, with the one-time
		// shared production costs excluded.
		perCell := s.Elapsed - s.CkptWall - s.RecWall
		if perCell < 0 {
			perCell = 0
		}
		return time.Duration(float64(perCell) / float64(s.Done) * float64(s.Cells-s.Done))
	}
	rate := float64(win.instrs) / win.span.Seconds()
	perCell := float64(s.Instrs) / float64(s.Done)
	left := time.Duration(perCell * float64(s.Cells-s.Done) / rate * float64(time.Second))
	left -= now.Sub(win.last)
	if left < time.Second {
		left = time.Second
	}
	return left
}

// CellStat is the scheduling record of one grid cell.
type CellStat struct {
	Label    string
	Workload string
	Cached   bool
	Shared   bool // joined another job's in-flight execution of the same cell
	Replayed bool // timed from a recorded stream (every simulated cell is)
	Wall     time.Duration
}

// SchedStats aggregates scheduler counters: how many cells an experiment
// ran, how many the store served (resident or joined in flight), how
// many consumed a recorded stream, and the wall time spent.
type SchedStats struct {
	Cells    int
	Cached   int
	Shared   int `json:",omitempty"`
	Replayed int
	Wall     time.Duration
}

func (s *SchedStats) add(o SchedStats) {
	s.Cells += o.Cells
	s.Cached += o.Cached
	s.Shared += o.Shared
	s.Replayed += o.Replayed
	s.Wall += o.Wall
}

// ResultSet is the typed output of one scheduler invocation: the (config
// × workload) grid of Results plus per-cell scheduling metadata.
type ResultSet struct {
	rows  map[string]map[string]Result
	Cells []CellStat
	Stats SchedStats
}

// NewResultSet returns an empty set shaped for the given configuration
// labels; AddCell fills it and Finish seals it. The matrix runners (the
// serial default and the grid service) share this assembly so their output
// is structurally identical.
func NewResultSet(cfgs []Config) *ResultSet {
	rs := &ResultSet{rows: make(map[string]map[string]Result, len(cfgs))}
	for _, cfg := range cfgs {
		rs.rows[cfg.Label] = map[string]Result{}
	}
	return rs
}

// AddCell records one finished cell. Callers serialize AddCell calls.
func (rs *ResultSet) AddCell(res Result, st CellStat) {
	row, ok := rs.rows[st.Label]
	if !ok {
		row = map[string]Result{}
		rs.rows[st.Label] = row
	}
	row[st.Workload] = res
	rs.Cells = append(rs.Cells, st)
	rs.Stats.Cells++
	if st.Cached {
		rs.Stats.Cached++
	}
	if st.Shared {
		rs.Stats.Shared++
	}
	if st.Replayed {
		rs.Stats.Replayed++
	}
}

// Finish seals the set: cells are sorted into the deterministic
// (workload, label) order the renderers expect.
func (rs *ResultSet) Finish() {
	sort.Slice(rs.Cells, func(i, j int) bool {
		if rs.Cells[i].Workload != rs.Cells[j].Workload {
			return rs.Cells[i].Workload < rs.Cells[j].Workload
		}
		return rs.Cells[i].Label < rs.Cells[j].Label
	})
}

// Row returns the per-workload results of one configuration label.
func (rs *ResultSet) Row(label string) map[string]Result { return rs.rows[label] }

// Get returns one cell's result.
func (rs *ResultSet) Get(label, workload string) (Result, bool) {
	res, ok := rs.rows[label][workload]
	return res, ok
}

// Labels returns the configuration labels of the set, sorted.
func (rs *ResultSet) Labels() []string {
	out := make([]string, 0, len(rs.rows))
	for l := range rs.rows {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// JSON renders the set machine-readably: every cell's full Result record
// with its scheduling metadata.
func (rs *ResultSet) JSON() ([]byte, error) {
	type cellJSON struct {
		Label    string
		Workload string
		Cached   bool
		Shared   bool `json:",omitempty"`
		Replayed bool
		WallNS   int64
		Result   Result
	}
	out := struct {
		Stats SchedStats
		Cells []cellJSON
	}{Stats: rs.Stats}
	for _, c := range rs.Cells {
		res := rs.rows[c.Label][c.Workload]
		out.Cells = append(out.Cells, cellJSON{
			Label: c.Label, Workload: c.Workload,
			Cached: c.Cached, Shared: c.Shared, Replayed: c.Replayed,
			WallNS: c.Wall.Nanoseconds(), Result: res,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// MatrixRunner executes one (configs × workloads) grid and returns its
// ResultSet. Labels must be unique within one call (they key the result
// rows).
type MatrixRunner func(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet

var matrixCtl = struct {
	sync.Mutex
	runner MatrixRunner
}{}

// SetMatrixRunner installs the grid executor every experiment matrix
// routes through, returning the previous one (nil means the built-in
// serial runner). The CLI installs the shared grid scheduler here so
// single-shot subcommands and the serve service are thin clients of the
// same scheduler core.
func SetMatrixRunner(r MatrixRunner) MatrixRunner {
	matrixCtl.Lock()
	defer matrixCtl.Unlock()
	prev := matrixCtl.runner
	matrixCtl.runner = r
	return prev
}

// runMatrix routes a grid to the installed matrix runner (the serial
// runner by default).
func runMatrix(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet {
	matrixCtl.Lock()
	r := matrixCtl.runner
	matrixCtl.Unlock()
	if r != nil {
		return r(cfgs, specs, p)
	}
	return RunMatrixSerial(cfgs, specs, p)
}

// MatrixCells flattens a grid into its cell requests in workload-major
// order: with a bounded pool, only a handful of workload images are in
// flight at once, so peak memory stays level even for huge grids. Both
// matrix runners schedule in this order.
func MatrixCells(cfgs []Config, specs []workloads.Spec, p Params) []CellRequest {
	cells := make([]CellRequest, 0, len(cfgs)*len(specs))
	for _, spec := range specs {
		for _, cfg := range cfgs {
			cells = append(cells, CellRequest{Cfg: cfg, Spec: spec, P: p})
		}
	}
	return cells
}

// RunMatrixSerial resolves every cell of the grid on the calling
// goroutine, cohort by cohort (PlanCohorts, ExecuteCohort), front-ended
// by the artifact store. It is the default matrix runner and the grid
// scheduler's fallback when its queue cannot take a grid; parallel
// execution is the grid scheduler's job.
func RunMatrixSerial(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet {
	start := time.Now()
	cells := MatrixCells(cfgs, specs, p)
	tr := NewTracker(len(cells))
	defer tr.Close()
	rs := NewResultSet(cfgs)
	for _, group := range PlanCohorts(cells, nil) {
		reqs := make([]CellRequest, len(group))
		for k, ci := range group {
			reqs[k] = cells[ci]
		}
		results, outs := ExecuteCohort(reqs, tr)
		for k, c := range reqs {
			res, out := results[k], outs[k]
			rs.AddCell(res, CellStat{
				Label: c.Cfg.Label, Workload: c.Spec.Name, Cached: out.Cached,
				Shared: out.Shared, Replayed: out.Replayed, Wall: out.Wall,
			})
			tr.CellDone(out, res.Instrs)
			emitProgress(CellEvent{Label: c.Cfg.Label, Workload: c.Spec.Name, Cached: out.Cached,
				Shared: out.Shared, Replayed: out.Replayed, Wall: out.Wall, Phases: out.Phases,
				Instrs: res.Instrs, Done: len(rs.Cells), Cells: len(cells)})
		}
	}
	rs.Stats.Wall = time.Since(start)
	rs.Finish()
	return rs
}
