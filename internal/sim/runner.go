package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// CellResult is one finished cell of a grid, as the grid service streams
// it: its place in completion order, how it was served, and its full
// simulation Result.
type CellResult struct {
	Seq             int    // completion index within the grid, from 0
	Label           string // configuration label
	Workload        string
	Cached          bool // result was resident in the artifact store
	Shared          bool // joined another job's in-flight execution
	Replayed        bool // consumed a recorded stream
	CkptFromStore   bool `json:",omitempty"` // warm checkpoint came from the store
	StreamFromStore bool `json:",omitempty"` // recording came from the store
	WallNS          int64
	Result          Result
}

// ResultSet is the record of one grid's finished cells: each cell once,
// in completion order, indexed by (configuration label, workload) for
// the figures, with the scheduler counters over them. The zero value is
// an empty set. Both matrix runners (the serial default and the grid
// service) record through Add, so their output is structurally
// identical.
type ResultSet struct {
	cells []CellResult
	rows  map[string]map[string]Result
	Stats SchedStats
}

// Add records one finished cell of c served as out. Callers serialize
// Add calls; Stats.Wall is the caller's to set.
func (rs *ResultSet) Add(c CellRequest, res Result, out CellOutcome) {
	label, wl := c.Cfg.Label, c.Spec.Name
	rs.cells = append(rs.cells, CellResult{
		Seq: len(rs.cells), Label: label, Workload: wl,
		Cached: out.Cached, Shared: out.Shared, Replayed: out.Replayed,
		CkptFromStore: out.CkptFromStore, StreamFromStore: out.StreamFromStore,
		WallNS: out.Wall.Nanoseconds(), Result: res,
	})
	if rs.rows == nil {
		rs.rows = map[string]map[string]Result{}
	}
	if rs.rows[label] == nil {
		rs.rows[label] = map[string]Result{}
	}
	rs.rows[label][wl] = res
	rs.Stats.Cells++
	if out.Cached {
		rs.Stats.Cached++
	}
	if out.Shared {
		rs.Stats.Shared++
	}
	if out.Replayed {
		rs.Stats.Replayed++
	}
}

// Cells returns the finished cells in completion order. Callers must not
// modify the slice.
func (rs *ResultSet) Cells() []CellResult { return rs.cells }

// Row returns the per-workload results of one configuration label.
func (rs *ResultSet) Row(label string) map[string]Result { return rs.rows[label] }

// Get returns one cell's result.
func (rs *ResultSet) Get(label, workload string) (Result, bool) {
	res, ok := rs.rows[label][workload]
	return res, ok
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

// serialJobs numbers RunMatrixSerial's grids, which report as jobs
// "serial-1", "serial-2", ... run by worker 1, the calling goroutine.
var serialJobs atomic.Int64

// RunMatrixSerial resolves every cell of the grid on the calling
// goroutine, cohort by cohort (PlanCohorts, ExecuteCohort), front-ended
// by the artifact store, and reports the grid's life to the event stream
// as a job. It is the default matrix runner and the grid scheduler's
// fallback when its queue cannot take a grid; parallel execution is the
// grid scheduler's job.
func RunMatrixSerial(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet {
	start := time.Now()
	cells := MatrixCells(cfgs, specs, p)
	tr := &Tracker{Job: fmt.Sprintf("serial-%d", serialJobs.Add(1)), Worker: 1}
	Emit(Event{Kind: EvJobSubmit, Job: tr.Job, N: int64(len(cells))})
	rs := &ResultSet{}
	for _, group := range PlanCohorts(cells, nil) {
		reqs := make([]CellRequest, len(group))
		for k, ci := range group {
			reqs[k] = cells[ci]
			Emit(Event{Kind: EvCellStart, Job: tr.Job, Worker: tr.Worker, Seq: ci,
				Label: reqs[k].Cfg.Label, Workload: reqs[k].Spec.Name})
		}
		results, outs := ExecuteCohort(reqs, tr)
		for k, c := range reqs {
			res, out := results[k], outs[k]
			Emit(Event{Kind: EvCellFinish, Job: tr.Job, Worker: tr.Worker, Seq: group[k],
				Label: c.Cfg.Label, Workload: c.Spec.Name, Dur: out.Wall, N: int64(res.Instrs), Out: out})
			rs.Add(c, res, out)
		}
	}
	rs.Stats.Wall = time.Since(start)
	Emit(Event{Kind: EvJobDone, Job: tr.Job, Dur: rs.Stats.Wall})
	return rs
}
