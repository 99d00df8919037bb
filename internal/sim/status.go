package sim

import (
	"sync"
	"time"
)

// GridStatus is a point-in-time snapshot of the grid: the aggregate over
// every job in flight. Cells are counted by state; Building,
// Checkpointing, Recording and Running count the cohorts running now by
// the phase they work in.
type GridStatus struct {
	Active        bool          // at least one job is in flight
	Cells         int           // total cells of the jobs in flight
	Queued        int           // not yet picked up by a worker
	Building      int           // constructing workload image / machine
	Checkpointing int           // producing a shared fast-forward checkpoint
	Recording     int           // producing a shared stream recording
	Running       int           // simulating
	Done          int           // finished (simulated or served from the store)
	Cached        int           // of Done, served resident from the artifact store
	Shared        int           // of Done, joined from another job's in-flight cell
	Replayed      int           // of Done, fed by a recorded stream
	Cohorts       int           // cohorts of two or more cells completed
	CohortCells   int           // cells in those cohorts (occupancy = CohortCells/Cohorts)
	Instrs        uint64        // instructions simulated by finished cells
	StreamBytes   int64         // encoded stream bytes produced so far (process-wide)
	Elapsed       time.Duration // since the earliest job in flight was submitted
	CkptWall      time.Duration // wall time spent producing checkpoints so far
	RecWall       time.Duration // wall time spent producing recordings so far
	PhaseWall     PhaseTimes    // wall time attributed to each phase so far
	Rate          float64       // instructions per wall-second so far
	ETA           time.Duration // projected time to finish, 0 if unknown
}

// StatusFold folds the event stream into a GridStatus. A job enters at
// its EvJobSubmit (or EvJobResume, when it had left) and leaves at its
// EvJobDone, or once it is canceled and its last running cell finished;
// events of jobs not in flight change nothing. CurrentStatus reads the
// process-wide fold every event reaches; folding a replayed journal into
// a fresh one gives the same status. The zero value is empty and ready.
type StatusFold struct {
	mu   sync.Mutex
	jobs map[string]*jobFold

	// Sliding instruction-rate window for ETA projection: cumulative
	// instructions finished (by every job, ever) sampled at each cell
	// completion. Cohorts finish cells in batches of up to
	// MaxCohortWidth, so projecting from the completion count sawtooths;
	// a rate window over the recent samples does not (the batch
	// contributes both its instructions and the time it took to produce
	// them).
	instrs   uint64
	samples  [rateSamples]rateSample
	nsamples int // samples written; index i lives at samples[i%rateSamples]
}

// jobFold is one job in flight: its counters in GridStatus form, the
// cells started and not yet finished, and its running cohorts by the
// cell they speak for and the phase they work in.
type jobFold struct {
	st       GridStatus
	start    time.Time
	inflight int
	canceled bool
	busy     map[cellID]Phase
}

type cellID struct{ label, workload string }

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

// Apply folds one event in.
func (f *StatusFold) Apply(ev Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[ev.Job]
	switch ev.Kind {
	case EvJobSubmit:
		f.open(ev.Job, ev.N)
		return
	case EvJobResume:
		if j == nil {
			f.open(ev.Job, ev.N)
			return
		}
		j.st.Cells += int(ev.N)
		j.canceled = false
		return
	}
	if j == nil {
		return
	}
	switch ev.Kind {
	case EvJobCancel:
		// The queued cells are dropped; the running ones still finish.
		j.canceled = true
		j.st.Cells = j.st.Done + j.inflight
	case EvJobDone:
		delete(f.jobs, ev.Job)
		return
	case EvCellStart:
		j.inflight++
	case EvCellFinish:
		j.inflight--
		j.st.Done++
		if ev.Out.Cached {
			j.st.Cached++
		}
		if ev.Out.Shared {
			j.st.Shared++
		}
		if ev.Out.Replayed {
			j.st.Replayed++
		}
		j.st.Instrs += uint64(ev.N)
		f.instrs += uint64(ev.N)
		f.sample(time.Now())
	case EvCohortFinish:
		j.st.Cohorts++
		j.st.CohortCells += int(ev.N)
	case EvPhaseStart:
		if j.busy == nil {
			j.busy = map[cellID]Phase{}
		}
		j.busy[cellID{ev.Label, ev.Workload}] = ev.Phase
	case EvCellPhase:
		j.st.PhaseWall.Add(ev.Phase, ev.Dur)
		c := cellID{ev.Label, ev.Workload}
		in, ok := j.busy[c]
		switch {
		case !ok:
		case ev.Phase == PhaseBuild:
			delete(j.busy, c)
		default:
			// The segment that ends a production the cohort entered is
			// that production's wall.
			switch {
			case in != ev.Phase:
			case in == PhaseFastForward:
				j.st.CkptWall += ev.Dur
			case in == PhaseRecord:
				j.st.RecWall += ev.Dur
			}
			j.busy[c] = PhaseBuild
		}
	}
	if j.canceled && j.inflight == 0 {
		delete(f.jobs, ev.Job)
	}
}

// open enters a job of the given cell count. Caller holds f.mu.
func (f *StatusFold) open(job string, cells int64) {
	now := time.Now()
	if f.jobs == nil {
		f.jobs = map[string]*jobFold{}
	}
	f.jobs[job] = &jobFold{st: GridStatus{Cells: int(cells)}, start: now}
	if f.nsamples == 0 {
		f.sample(now)
	}
}

// sample records the cumulative instruction count at now. Caller holds f.mu.
func (f *StatusFold) sample(now time.Time) {
	f.samples[f.nsamples%rateSamples] = rateSample{at: now, instrs: f.instrs}
	f.nsamples++
}

// jobProgress returns the finished and total cells of a job in flight.
func (f *StatusFold) jobProgress(job string) (done, cells int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if j := f.jobs[job]; j != nil {
		return j.st.Done, j.st.Cells
	}
	return 0, 0
}

// rateWindowLocked computes the sliding window ending at the newest
// sample: the base is the most recent sample at least rateWindowSpan
// old (or the oldest retained one). Caller holds f.mu.
func (f *StatusFold) rateWindowLocked(now time.Time) rateWindow {
	if f.nsamples == 0 {
		return rateWindow{}
	}
	newest := f.samples[(f.nsamples-1)%rateSamples]
	oldest := 0
	if f.nsamples > rateSamples {
		oldest = f.nsamples - rateSamples
	}
	base := newest
	for i := f.nsamples - 1; i >= oldest; i-- {
		base = f.samples[i%rateSamples]
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

// Status snapshots the fold: the sum over the jobs in flight, with the
// queue depth, rate and ETA derived from it.
func (f *StatusFold) Status() GridStatus {
	now := time.Now()
	var s GridStatus
	inflight := 0
	var earliest time.Time
	f.mu.Lock()
	for _, j := range f.jobs {
		s.Cells += j.st.Cells
		s.Done += j.st.Done
		s.Cached += j.st.Cached
		s.Shared += j.st.Shared
		s.Replayed += j.st.Replayed
		s.Cohorts += j.st.Cohorts
		s.CohortCells += j.st.CohortCells
		s.Instrs += j.st.Instrs
		s.CkptWall += j.st.CkptWall
		s.RecWall += j.st.RecWall
		s.PhaseWall.AddAll(j.st.PhaseWall)
		inflight += j.inflight
		for _, p := range j.busy {
			switch p {
			case PhaseBuild:
				s.Building++
			case PhaseFastForward:
				s.Checkpointing++
			case PhaseRecord:
				s.Recording++
			case PhaseTiming:
				s.Running++
			}
		}
		if earliest.IsZero() || j.start.Before(earliest) {
			earliest = j.start
		}
	}
	s.Active = len(f.jobs) > 0
	win := f.rateWindowLocked(now)
	f.mu.Unlock()

	s.StreamBytes = RecordingStats().Bytes
	s.Queued = max(s.Cells-s.Done-inflight, 0)
	if !s.Active {
		return s
	}
	s.Elapsed = now.Sub(earliest)
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.Rate = float64(s.Instrs) / sec
	}
	if s.Done > 0 && s.Done < s.Cells {
		s.ETA = projectETA(&s, win, now)
	}
	return s
}

// CurrentStatus reads the process-wide status fold: every job in flight,
// run by the grid scheduler or by RunMatrixSerial, as one grid.
func CurrentStatus() GridStatus { return status.Status() }

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

// CellEvent is what the progress hook sees of a finished cell: its
// EvCellFinish event, plus its job's progress as the status fold reads
// it at delivery.
type CellEvent struct {
	Label    string        // configuration label
	Workload string        // workload name
	Cached   bool          // served resident from the artifact store
	Shared   bool          // joined another caller's in-flight execution
	Replayed bool          // timed from a recorded stream (every simulated cell is)
	Wall     time.Duration // wall time spent on the cell
	Phases   PhaseTimes    // per-phase decomposition of Wall
	Instrs   uint64        // instructions the cell simulated (its Result's window)
	Done     int           // cells of the job finished
	Cells    int           // cells of the job
}

var progress struct {
	sync.Mutex
	unsubscribe func()
}

// SetProgressHook installs fn to observe every finished cell (nil
// removes it). It is an adapter over the event stream: a subscriber
// that turns each EvCellFinish into a CellEvent. fn is invoked
// sequentially, never concurrently.
func SetProgressHook(fn func(CellEvent)) {
	progress.Lock()
	defer progress.Unlock()
	if progress.unsubscribe != nil {
		progress.unsubscribe()
		progress.unsubscribe = nil
	}
	if fn == nil {
		return
	}
	var mu sync.Mutex
	progress.unsubscribe = Subscribe(func(ev Event) {
		if ev.Kind != EvCellFinish {
			return
		}
		done, cells := status.jobProgress(ev.Job)
		mu.Lock()
		defer mu.Unlock()
		fn(CellEvent{Label: ev.Label, Workload: ev.Workload,
			Cached: ev.Out.Cached, Shared: ev.Out.Shared, Replayed: ev.Out.Replayed,
			Wall: ev.Out.Wall, Phases: ev.Out.Phases, Instrs: uint64(ev.N),
			Done: done, Cells: cells})
	})
}
