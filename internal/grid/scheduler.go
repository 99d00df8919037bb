// Package grid is the multi-tenant service layer over the simulation
// scheduler core: jobs (config × workload grids) enter a bounded
// priority queue, expand into cells, and execute on a shared worker pool
// through sim.ExecuteCohort — so concurrent jobs deduplicate against each
// other via the unified artifact store (overlapping tenants share cell
// results, checkpoints and recorded streams). The same scheduler backs
// the in-process CLI subcommands (as the installed sim matrix runner)
// and `svrsim serve`'s HTTP API.
package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// Options configures a Scheduler.
type Options struct {
	// Workers is the size of the cell worker pool (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the number of queued cells across all jobs
	// (default 4096); Submit returns *ErrQueueFull past it.
	QueueCap int
	// ExecuteGroup runs one queue item: a group sim.PlanCohorts formed,
	// sibling cells stepped in lockstep or a lone cell (default
	// sim.ExecuteCohort; tests inject a stub to exercise scheduling
	// without simulating).
	ExecuteGroup func([]sim.CellRequest, *sim.Tracker) ([]sim.Result, []sim.CellOutcome)
}

// Scheduler owns the queue, the worker pool and the job table.
type Scheduler struct {
	opts Options
	q    *queue

	obs         *schedMetrics // queue-wait and per-phase latency histograms
	unsubscribe func()        // obs's subscription to the event stream

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	closed bool

	wg sync.WaitGroup // worker pool
}

// New starts a scheduler with opts defaults filled in.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 4096
	}
	if opts.ExecuteGroup == nil {
		opts.ExecuteGroup = sim.ExecuteCohort
	}
	s := &Scheduler{
		opts: opts,
		q:    newQueue(opts.QueueCap),
		jobs: map[string]*Job{},
		obs:  newSchedMetrics(),
	}
	s.unsubscribe = sim.Subscribe(s.observe)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i + 1) // 1-based worker ids; 0 is the scheduler track
	}
	return s
}

func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for {
		it, ok := s.q.pop()
		if !ok {
			return
		}
		job := it.job
		wait := time.Since(it.at)
		var (
			started []int
			reqs    []sim.CellRequest
		)
		for _, cell := range it.cells {
			req, ok := job.startCell(cell, id, wait)
			if !ok {
				continue // canceled after queueing; the cell stays pending
			}
			started = append(started, cell)
			reqs = append(reqs, req)
		}
		if len(started) == 0 {
			continue
		}
		// A partially-canceled cohort shrinks to its surviving members;
		// they are still siblings, so lockstep execution stays valid.
		results, outs := s.opts.ExecuteGroup(reqs, &sim.Tracker{Job: job.ID, Worker: id})
		for k, cell := range started {
			job.finishCell(cell, id, results[k], outs[k])
		}
	}
}

// JobRequest is a submission: a grid of full machine configurations
// against named workloads. Configuration labels must be unique within
// one job (they key the result rows).
type JobRequest struct {
	Name      string
	Priority  int // higher runs first
	Configs   []sim.Config
	Workloads []string
	Params    sim.Params
}

// ResolveWorkloads maps workload names to specs (any registered
// workload: evaluation set, SPEC proxies, microbenchmarks).
func ResolveWorkloads(names []string) ([]workloads.Spec, error) {
	specs := make([]workloads.Spec, 0, len(names))
	for _, n := range names {
		sp, err := workloads.Get(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// ParseConfig resolves a named machine configuration: "inorder"
// ("in-order"), "imp", "ooo" ("out-of-order"), or "svrN" for SVR with
// vector length N (e.g. "svr16").
func ParseConfig(name string) (sim.Config, error) {
	switch strings.ToLower(name) {
	case "inorder", "in-order":
		return sim.MachineConfig(sim.InO), nil
	case "imp":
		return sim.MachineConfig(sim.IMP), nil
	case "ooo", "out-of-order":
		return sim.MachineConfig(sim.OoO), nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(name), "svr"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n > 0 {
			return sim.SVRConfig(n), nil
		}
	}
	return sim.Config{}, fmt.Errorf("grid: unknown config %q (want inorder, imp, ooo, or svrN)", name)
}

// Submit validates a request (every config must pass sim.Config.Validate
// and the window sim.Params.Validate), expands it into cells and
// enqueues them. It returns *ErrQueueFull (nothing enqueued) when the
// queue cannot take the whole job.
func (s *Scheduler) Submit(req JobRequest) (*Job, error) {
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("grid: job has no configs")
	}
	specs, err := ResolveWorkloads(req.Workloads)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("grid: job has no workloads")
	}
	seen := map[string]bool{}
	for _, c := range req.Configs {
		if seen[c.Label] {
			return nil, fmt.Errorf("grid: duplicate config label %q", c.Label)
		}
		seen[c.Label] = true
		// A config a constructor cannot build would panic a worker and
		// take every queued job down with the process.
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
	}
	// So would an image no builder can finish or a window too large to
	// run: a negative Scale sends a build into a runaway loop.
	if err := req.Params.Validate(); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	return s.submit(req.Name, req.Priority, req.Configs, specs, req.Params)
}

// jobIDs numbers jobs across every scheduler in the process, so a job's
// ID names it alone in the one event stream.
var jobIDs atomic.Int64

func (s *Scheduler) submit(name string, pri int, cfgs []sim.Config, specs []workloads.Spec, p sim.Params) (*Job, error) {
	id := fmt.Sprintf("job-%d", jobIDs.Add(1))
	job := newJob(id, name, pri, cfgs, specs, p)
	// The job lock keeps a worker from starting a popped cell before the
	// job is registered and announced (startCell takes it). Registering
	// only once the push succeeded, under the same s.mu hold as the
	// shutdown check, leaves nothing to roll back.
	job.mu.Lock()
	defer job.mu.Unlock()
	s.mu.Lock()
	err := errShutDown
	if !s.closed {
		// Adjacent siblings queue as one lockstep cohort.
		err = s.q.push(job, sim.PlanCohorts(job.cells, nil))
	}
	if err == nil {
		s.jobs[id] = job
		s.order = append(s.order, id)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i := range job.cells {
		job.queued[i] = struct{}{}
	}
	sim.Emit(sim.Event{Kind: sim.EvJobSubmit, Job: id, N: int64(len(job.cells)), Note: name})
	job.queueEventsLocked(nil)
	return job, nil
}

// RunMatrix is the blocking in-process client: submit and wait. It has
// the sim.MatrixRunner signature, so the CLI installs it to route every
// experiment matrix through this scheduler. If the queue cannot take the
// grid, it resolves the grid serially on the caller's goroutine rather
// than failing the CLI.
func (s *Scheduler) RunMatrix(cfgs []sim.Config, specs []workloads.Spec, p sim.Params) *sim.ResultSet {
	job, err := s.submit("", 0, cfgs, specs, p)
	if err != nil {
		return sim.RunMatrixSerial(cfgs, specs, p)
	}
	return job.Wait()
}

// Job looks up a job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel stops a job: queued cells are dropped (they stay pending for a
// later Resume), running cells finish — their results are deterministic
// and may be shared with other jobs in flight, so abandoning them would
// waste work the store can reuse.
func (s *Scheduler) Cancel(id string) error {
	job, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("grid: no job %q", id)
	}
	job.mu.Lock()
	if job.state == StateDone || job.state == StateCanceled {
		st := job.state
		job.mu.Unlock()
		return fmt.Errorf("grid: job %s is already %s", id, st)
	}
	job.state = StateCanceled
	sim.Emit(sim.Event{Kind: sim.EvJobCancel, Job: id})
	job.mu.Unlock()

	s.q.remove(job)
	job.mu.Lock()
	job.queued = map[int]struct{}{}
	job.cond.Broadcast()
	job.mu.Unlock()
	return nil
}

// Resume re-enqueues a canceled job's unfinished cells (under its
// original priority). Finished cells are kept; typically they — and
// anything overlapping jobs produced meanwhile — come straight back out
// of the artifact store.
func (s *Scheduler) Resume(id string) error {
	job, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("grid: no job %q", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != StateCanceled {
		return fmt.Errorf("grid: job %s is %s, not canceled", id, job.state)
	}
	todo := job.unqueuedLocked()
	sort.Ints(todo)
	if len(todo) == 0 && len(job.running) == 0 && len(job.pending) == 0 {
		job.state = StateDone
		job.finished = job.submitted
		return nil
	}
	for _, i := range todo {
		job.queued[i] = struct{}{}
	}
	// As in submit, the job lock keeps workers from starting the
	// re-enqueued cells before the resume is announced.
	if err := s.q.push(job, sim.PlanCohorts(job.cells, todo)); err != nil {
		job.queued = map[int]struct{}{}
		return err
	}
	job.state = StateRunning
	sim.Emit(sim.Event{Kind: sim.EvJobResume, Job: id, N: int64(len(todo))})
	job.queueEventsLocked(todo)
	return nil
}

// QueueDepth returns the number of cells waiting in the queue.
func (s *Scheduler) QueueDepth() int { return s.q.depth() }

// Shutdown drains the scheduler: no new submissions, queued cells are
// abandoned where they are (SaveState persists them), running cells
// finish. It blocks until the worker pool exits, reports each job it
// abandoned as canceled by the shutdown (so the grid status stops
// counting it in flight) and marks it abandoned, then wakes every
// streaming/waiting client: Wait returns the cells that finished, and
// Result stops past the last of them.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	again := s.closed
	s.closed = true
	s.mu.Unlock()
	s.q.close()
	s.wg.Wait()
	s.unsubscribe()
	for _, j := range s.Jobs() {
		j.mu.Lock()
		if !again && (j.state == StateQueued || j.state == StateRunning) {
			sim.Emit(sim.Event{Kind: sim.EvJobCancel, Job: j.ID, Note: "shutdown"})
			j.abandoned = true
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// persistedJob is the on-disk form of an unfinished job: enough to
// resubmit it (results live only in the in-memory store, so a restarted
// job re-executes; warm artifacts make that cheap when anything
// overlapping ran since).
type persistedJob struct {
	Name      string `json:",omitempty"`
	Priority  int    `json:",omitempty"`
	Configs   []sim.Config
	Workloads []string
	Params    sim.Params
}

type persistedState struct {
	Jobs []persistedJob
}

// SaveState writes every unfinished job to path (overwriting), so a
// restarted server can resubmit them. Call after Shutdown.
func (s *Scheduler) SaveState(path string) error {
	var st persistedState
	for _, j := range s.Jobs() {
		j.mu.Lock()
		unfinished := len(j.pending) > 0 && j.state != StateCanceled
		if unfinished {
			pj := persistedJob{Name: j.Name, Priority: j.Priority, Configs: j.cfgs, Params: j.params}
			for _, sp := range j.specs {
				pj.Workloads = append(pj.Workloads, sp.Name)
			}
			st.Jobs = append(st.Jobs, pj)
		}
		j.mu.Unlock()
	}
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(blob, '\n'))
}

// writeFileAtomic replaces path with data so that a crash at any point
// leaves either the previous file or the new one, never a truncated
// mix: the bytes go to a temporary file in the same directory, are
// synced to disk, and only then renamed over path.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = renameFile(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// renameFile is writeFileAtomic's commit point; tests swap it to fail a
// save just before the rename.
var renameFile = os.Rename

// LoadState resubmits the jobs persisted at path. A missing file is not
// an error (nothing to restore). Returns the number of restored jobs.
func (s *Scheduler) LoadState(path string) (int, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var st persistedState
	if err := json.Unmarshal(blob, &st); err != nil {
		return 0, fmt.Errorf("grid: corrupt state file %s: %w", path, err)
	}
	n := 0
	for _, pj := range st.Jobs {
		if _, err := s.Submit(JobRequest(pj)); err != nil {
			return n, fmt.Errorf("grid: restoring job %q: %w", pj.Name, err)
		}
		n++
	}
	return n, nil
}
