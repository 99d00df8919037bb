package grid

import (
	"context"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// State is a job's lifecycle position.
type State string

// Job states. A canceled job keeps its finished cells and can be
// resumed, which re-enqueues the unfinished remainder.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
)

// JobStatus is the poll/list view of a job.
type JobStatus struct {
	ID       string
	Name     string `json:",omitempty"`
	Priority int
	State    State
	Cells    int // total cells of the grid
	Done     int
	Queued   int // waiting in the scheduler queue
	Running  int // executing right now
	// FromStore counters: how much of this job the unified artifact
	// store served instead of this job simulating it.
	CachedCells     int // results resident in the store
	SharedCells     int // results joined from another job's in-flight cell
	ReplayedCells   int // cells fed by a recorded stream
	CkptsFromStore  int // cells whose warm checkpoint came from the store
	StreamFromStore int // cells whose recording came from the store
	SubmittedAt     time.Time
	WallNS          int64 `json:",omitempty"` // total wall time, once done
	// PhaseWall decomposes the finished cells' summed wall time by phase
	// (JSON: {"build": ns, ...}) — where this job's grid time went.
	PhaseWall sim.PhaseTimes
}

// Job is one submitted grid: (configs × workloads) cells flowing through
// the shared scheduler.
type Job struct {
	ID       string
	Name     string
	Priority int

	cfgs   []sim.Config
	specs  []workloads.Spec
	params sim.Params
	cells  []sim.CellRequest

	mu        sync.Mutex
	cond      *sync.Cond
	state     State
	queued    map[int]struct{} // cell index → waiting in the queue
	running   map[int]struct{} // cell index → executing
	pending   map[int]struct{} // cell index → not finished (queued ∪ running ∪ dropped)
	rs        sim.ResultSet    // finished cells in completion order
	phaseWall sim.PhaseTimes   // finished cells' wall time by phase
	submitted time.Time
	finished  time.Time
	abandoned bool // Shutdown reported the job canceled; no cell will start
}

func newJob(id, name string, pri int, cfgs []sim.Config, specs []workloads.Spec, p sim.Params) *Job {
	j := &Job{
		ID: id, Name: name, Priority: pri,
		cfgs: cfgs, specs: specs, params: p,
		cells:     sim.MatrixCells(cfgs, specs, p),
		state:     StateQueued,
		queued:    map[int]struct{}{},
		running:   map[int]struct{}{},
		pending:   map[int]struct{}{},
		submitted: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	for i := range j.cells {
		j.pending[i] = struct{}{}
	}
	return j
}

// unqueued returns the pending cells that are neither queued nor
// running — what cancel dropped and resume must re-enqueue. Caller
// holds j.mu.
func (j *Job) unqueuedLocked() []int {
	var out []int
	for i := range j.pending {
		if _, q := j.queued[i]; q {
			continue
		}
		if _, r := j.running[i]; r {
			continue
		}
		out = append(out, i)
	}
	return out
}

// queueEventsLocked reports the given cells (nil: all) queued. Caller
// holds j.mu.
func (j *Job) queueEventsLocked(cells []int) {
	if cells == nil {
		cells = make([]int, len(j.cells))
		for i := range cells {
			cells[i] = i
		}
	}
	for _, i := range cells {
		c := j.cells[i]
		sim.Emit(sim.Event{Kind: sim.EvCellQueue, Job: j.ID, Label: c.Cfg.Label, Workload: c.Spec.Name, Seq: i})
	}
}

// startCell transitions a popped cell to running and reports its start
// by worker after wait in the queue. ok is false when the job was
// canceled after the cell was queued; the cell stays pending.
func (j *Job) startCell(i, worker int, wait time.Duration) (sim.CellRequest, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.queued, i)
	if j.state == StateCanceled {
		return sim.CellRequest{}, false
	}
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.running[i] = struct{}{}
	c := j.cells[i]
	sim.Emit(sim.Event{Kind: sim.EvCellStart, Job: j.ID, Label: c.Cfg.Label, Workload: c.Spec.Name,
		Seq: i, Worker: worker, Dur: wait})
	return c, true
}

// finishCell banks one cell worker executed and reports its finish; when
// that ends the job it reports the job done, after every cell's finish.
func (j *Job) finishCell(i, worker int, res sim.Result, out sim.CellOutcome) {
	c := j.cells[i]
	j.mu.Lock()
	defer j.mu.Unlock()
	sim.Emit(sim.Event{Kind: sim.EvCellFinish, Job: j.ID, Label: c.Cfg.Label, Workload: c.Spec.Name,
		Seq: i, Worker: worker, Dur: out.Wall, N: int64(res.Instrs), Out: out})
	delete(j.running, i)
	delete(j.pending, i)
	j.rs.Add(c, res, out)
	j.phaseWall.AddAll(out.Phases)
	if len(j.pending) == 0 && j.state != StateCanceled {
		j.state = StateDone
		j.finished = time.Now()
		j.rs.Stats.Wall = j.finished.Sub(j.submitted)
		sim.Emit(sim.Event{Kind: sim.EvJobDone, Job: j.ID, Dur: j.rs.Stats.Wall})
	}
	j.cond.Broadcast()
}

// terminalLocked reports whether the job will make no more progress:
// done, or canceled or abandoned by Shutdown with no cell still
// executing. Caller holds j.mu.
func (j *Job) terminalLocked() bool {
	if j.state == StateDone {
		return true
	}
	return (j.state == StateCanceled || j.abandoned) && len(j.running) == 0
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	cells := j.rs.Cells()
	st := JobStatus{
		ID: j.ID, Name: j.Name, Priority: j.Priority, State: j.state,
		Cells: len(j.cells), Done: len(cells),
		Queued: len(j.queued), Running: len(j.running),
		SubmittedAt: j.submitted, PhaseWall: j.phaseWall,
	}
	for _, r := range cells {
		if r.Cached {
			st.CachedCells++
		}
		if r.Shared {
			st.SharedCells++
		}
		if r.Replayed {
			st.ReplayedCells++
		}
		if r.CkptFromStore {
			st.CkptsFromStore++
		}
		if r.StreamFromStore {
			st.StreamFromStore++
		}
	}
	if j.state == StateDone {
		st.WallNS = j.finished.Sub(j.submitted).Nanoseconds()
	}
	return st
}

// Result returns the i-th finished cell (completion order), blocking
// until it exists, the job reaches a terminal state without producing
// it, or ctx is canceled. ok is false in the latter two cases.
func (j *Job) Result(ctx context.Context, i int) (sim.CellResult, bool) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.rs.Cells()) <= i && !j.terminalLocked() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if cells := j.rs.Cells(); len(cells) > i {
		return cells[i], true
	}
	return sim.CellResult{}, false
}

// Wait blocks until the job is done (or canceled, or abandoned by
// Shutdown, and drained) and returns its ResultSet. The set is only
// complete when the job finished.
func (j *Job) Wait() *sim.ResultSet {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.terminalLocked() {
		j.cond.Wait()
	}
	return &j.rs
}
