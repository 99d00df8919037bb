package sim

import (
	"encoding/json"
	"fmt"
	"sort"
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
	rs := NewResultSet(cfgs)
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
			rs.AddCell(res, CellStat{
				Label: c.Cfg.Label, Workload: c.Spec.Name, Cached: out.Cached,
				Shared: out.Shared, Replayed: out.Replayed, Wall: out.Wall,
			})
		}
	}
	rs.Stats.Wall = time.Since(start)
	rs.Finish()
	Emit(Event{Kind: EvJobDone, Job: tr.Job, Dur: rs.Stats.Wall})
	return rs
}
