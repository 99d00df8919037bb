package sim

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
)

// The event stream: every report of a cell's life — a job entering or
// leaving the grid, a cell queued, started or finished, a cohort formed,
// a phase entered or finished, an artifact served, produced or evicted —
// is one Event delivered to one subscriber list. The grid status
// (CurrentStatus), the progress hook, the grid journal and its trace, and
// the grid service's latency histograms are all subscribers; none of
// them is handed the report any other way. With no subscriber an
// emission costs one atomic load and no allocation.

// Kind names what an Event reports. The grid journal writes each kind
// under its own name (job.submit, cell.phase, ...), and the field
// comments below say what each kind carries besides its Kind.
type Kind uint8

// The event kinds, in the journal's vocabulary.
const (
	EvJobSubmit       Kind = iota // Job, N: cells, Note: the job's name
	EvJobCancel                   // Job, Note: "shutdown" when the scheduler shut down under it
	EvJobResume                   // Job, N: re-enqueued cells
	EvJobDone                     // Job, Dur: submit→finish wall
	EvCellQueue                   // Job, cell, Seq
	EvCellStart                   // Job, cell, Seq, Worker, Dur: queue wait
	EvCellFinish                  // Job, cell, Seq, Worker, Dur: wall, N: instructions, Out
	EvCohortStart                 // Job, Worker, N: width
	EvCohortFinish                // Job, Worker, N: width, Dur
	EvPhaseStart                  // Job, cell, Phase: the cohort the cell leads now works in Phase
	EvCellPhase                   // Job, cell, Phase, Dur: one finished attribution segment
	EvArtifactHit                 // Job, cell, Key, Dur: a resident artifact served
	EvArtifactJoin                // Job, cell, Key, Dur: another caller's production joined
	EvArtifactProduce             // Job, cell, Key, Dur: an artifact produced by this cell
	EvArtifactEvict               // Key, N: bytes; store-global, no job
	NumKinds
)

// Event is one report of the stream. A cell-scoped event names its cell
// by configuration label and workload and is stamped with the job it
// belongs to ("" for a cell run outside any job). Which other fields a
// kind fills is listed with the kinds; the rest are zero.
//
// A running cohort speaks for its first claimed cell. Its EvPhaseStart
// events say which phase it works in: build when the run begins, then
// fast-forward, record or timing while it produces a checkpoint or a
// recording or steps a window. Its next EvCellPhase returns it to build,
// and the build segment, its last, ends the run.
type Event struct {
	Kind     Kind
	Job      string
	Label    string // configuration label of the cell
	Workload string
	Seq      int // the cell's index in its job's grid
	Worker   int // 1-based worker running the cell or cohort
	Phase    Phase
	Key      artifact.Key
	Dur      time.Duration
	N        int64
	Note     string
	Out      CellOutcome // how a finished cell was served
}

// subscriber wraps a subscribed function so the list can find it again.
type subscriber struct{ fn func(Event) }

// subscribers is the copy-on-write subscriber list Emit reads; subMu
// serializes the writers.
var (
	subscribers atomic.Pointer[[]*subscriber]
	subMu       sync.Mutex
)

// Subscribe adds fn to the subscriber list and returns the function that
// removes it again (safe to call more than once). Every event is
// delivered to every subscriber, in subscription order, on the goroutine
// that emits it, and possibly under a scheduler or artifact-store lock:
// fn must be safe for concurrent calls, return quickly, and not call
// back into the grid scheduler or the artifact store.
func Subscribe(fn func(Event)) (unsubscribe func()) {
	s := &subscriber{fn}
	subMu.Lock()
	var list []*subscriber
	if old := subscribers.Load(); old != nil {
		list = slices.Clone(*old)
	}
	list = append(list, s)
	subscribers.Store(&list)
	subMu.Unlock()
	return func() {
		subMu.Lock()
		defer subMu.Unlock()
		old := subscribers.Load()
		if old == nil {
			return
		}
		list := slices.DeleteFunc(slices.Clone(*old), func(o *subscriber) bool { return o == s })
		if len(list) == 0 {
			subscribers.Store(nil)
			return
		}
		subscribers.Store(&list)
	}
}

// Emit delivers ev to every subscriber.
func Emit(ev Event) {
	if subs := subscribers.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(ev)
		}
	}
}

// Tracker names the job and the worker a cohort's events are stamped
// with: the grid scheduler hands one to ExecuteCohort for each group it
// runs. A nil *Tracker stamps neither.
type Tracker struct {
	Job    string
	Worker int
}

// status is the process-wide fold CurrentStatus reads. It subscribes
// first, so every later subscriber sees an event already folded in.
// The artifact store's evictions enter the stream here too.
var status StatusFold

func init() {
	Subscribe(status.Apply)
	artifacts.SetEvictHook(func(ev artifact.EvictEvent) {
		Emit(Event{Kind: EvArtifactEvict, Key: ev.Key, N: ev.Bytes})
	})
}

// reporter is the one handle cell execution reports through: it stamps
// each event with its Tracker's job and the cell it speaks for (a cohort
// speaks for its first claim), and banks each phase segment it reports
// into ph. A nil *reporter reports nothing (Simulate's private walk).
type reporter struct {
	job      string
	label    string
	workload string
	ph       *PhaseTimes
}

// reporterFor returns the handle of req's cell in tr's job, banking into ph.
func reporterFor(tr *Tracker, req CellRequest, ph *PhaseTimes) reporter {
	r := reporter{label: req.Cfg.Label, workload: req.Spec.Name, ph: ph}
	if tr != nil {
		r.job = tr.Job
	}
	return r
}

func (r *reporter) emit(ev Event) {
	if r == nil {
		return
	}
	ev.Job, ev.Label, ev.Workload = r.job, r.label, r.workload
	Emit(ev)
}

// enter reports that the cohort now works in phase p.
func (r *reporter) enter(p Phase) { r.emit(Event{Kind: EvPhaseStart, Phase: p}) }

// add banks one finished segment of phase p and reports it; empty
// segments are dropped.
func (r *reporter) add(p Phase, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.ph.Add(p, d)
	r.emit(Event{Kind: EvCellPhase, Phase: p, Dur: d})
}

// artifact reports one artifact-store resolution that took d.
func (r *reporter) artifact(k artifact.Key, oc artifact.Outcome, d time.Duration) {
	kind := EvArtifactProduce
	switch {
	case oc.Hit:
		kind = EvArtifactHit
	case oc.Waited:
		kind = EvArtifactJoin
	}
	r.emit(Event{Kind: kind, Key: k, Dur: d})
}
