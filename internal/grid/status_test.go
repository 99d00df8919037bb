package grid

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// gate parks each cohort of the job named name where its timing phase
// begins — a subscriber blocking the emitting worker — until the cohort's
// workload is released.
type gate struct {
	name    string
	held    chan string // workloads parked, in arrival order
	release map[string]chan struct{}

	mu     sync.Mutex
	job    string
	opened map[string]bool
}

func newGate(name string, workloads ...string) *gate {
	g := &gate{name: name, held: make(chan string, len(workloads)),
		release: map[string]chan struct{}{}, opened: map[string]bool{}}
	for _, w := range workloads {
		g.release[w] = make(chan struct{})
	}
	return g
}

func (g *gate) observe(ev sim.Event) {
	g.mu.Lock()
	if ev.Kind == sim.EvJobSubmit && ev.Note == g.name {
		g.job = ev.Job
	}
	job := g.job
	g.mu.Unlock()
	if ev.Kind != sim.EvPhaseStart || ev.Phase != sim.PhaseTiming || job == "" || ev.Job != job {
		return
	}
	if ch, ok := g.release[ev.Workload]; ok {
		g.held <- ev.Workload
		<-ch
	}
}

// open releases the cohort of workload w (every one, when w is "").
func (g *gate) open(w string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, ch := range g.release {
		if (w == "" || w == name) && !g.opened[name] {
			g.opened[name] = true
			close(ch)
		}
	}
}

// waitHeld blocks until n cohorts are parked at the gate.
func (g *gate) waitHeld(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.held:
		case <-time.After(time.Minute):
			t.Fatalf("only %d of %d cohorts reached the gate", i, n)
		}
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// freshStore empties the artifact store, so a test's cells, checkpoints
// and recordings are produced, not served from an earlier test's runs.
func freshStore() {
	for _, c := range artifact.Classes() {
		sim.Artifacts().Purge(c)
	}
}

// resultJoins counts the result lookups that joined another caller's
// production.
func resultJoins() int64 { return sim.Artifacts().Stats()[artifact.Result].Waited }

func submitNamed(t *testing.T, s *Scheduler, name string, cfgs []sim.Config, wls []string, p sim.Params) *Job {
	t.Helper()
	j, err := s.Submit(JobRequest{Name: name, Configs: cfgs, Workloads: wls, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStatusQueuedCountsCells: a cohort in flight holds all of its cells,
// not one; the scheduler's queue depth in /api/status is the jobs'.
func TestStatusQueuedCountsCells(t *testing.T) {
	freshStore()
	var cfgs []sim.Config
	for _, name := range []string{"inorder", "imp", "ooo", "svr8", "svr16", "svr32", "svr64", "svr128"} {
		cfg, err := ParseConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	s := New(Options{Workers: 1})
	defer s.Shutdown()
	g := newGate("fig1", "CC_ORK")
	defer sim.Subscribe(g.observe)()
	defer g.open("")
	submitNamed(t, s, "fig1", cfgs, []string{"CC_ORK"},
		sim.Params{Scale: workloads.TinyScale(), Warmup: 1_000, Measure: 10_000})
	g.waitHeld(t, 1)

	st := s.Status()
	queued := 0
	for _, j := range st.Jobs {
		queued += j.Queued
	}
	if st.Scheduler.Queued != queued || st.Scheduler.Running != 1 {
		t.Errorf("scheduler: %d queued, %d running; jobs: %d queued (want equal, 1 cohort running)",
			st.Scheduler.Queued, st.Scheduler.Running, queued)
	}
}

// TestShutdownDropsAbandonedJobs: a shutdown abandons the jobs whose
// cells are still queued, and reports each canceled, so the grid status
// stops counting it in flight; the journal of it stays schema-valid.
func TestShutdownDropsAbandonedJobs(t *testing.T) {
	var buf bytes.Buffer
	jn := NewJournal(JournalConfig{Writer: &buf, Capture: -1})
	SetJournal(jn)
	defer SetJournal(nil)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	// The first job's first cohort pins the worker; its second and the
	// whole second job stay queued.
	a := submitNamed(t, s, "A", labeled("A"), []string{"Randacc", "HJ2"}, sim.QuickParams())
	<-started
	b := submitNamed(t, s, "B", labeled("B"), []string{"Randacc"}, sim.QuickParams())
	if st := sim.CurrentStatus(); st.Queued == 0 {
		t.Fatalf("nothing queued before the shutdown: %+v", st)
	}
	go func() {
		// Release the pinned cohort once Shutdown closed the queue, so
		// the worker exits instead of taking a queued cohort.
		for closed := false; !closed; time.Sleep(time.Millisecond) {
			s.q.mu.Lock()
			closed = s.q.closed
			s.q.mu.Unlock()
		}
		close(release)
	}()
	s.Shutdown()
	SetJournal(nil)
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	if st := sim.CurrentStatus(); st.Active || st.Cells != 0 || st.Queued != 0 {
		t.Errorf("after shutdown the status still counts jobs in flight: %+v", st)
	}
	for _, j := range []*Job{a, b} {
		if st := j.Status(); st.State == StateDone || st.State == StateCanceled || st.Queued == 0 {
			t.Errorf("job %s: %+v, want it unfinished with cells queued", j.Name, st)
		}
	}
	if _, err := ValidateJournal(&buf); err != nil {
		t.Errorf("journal of the shutdown fails its schema: %v", err)
	}
	var fold sim.StatusFold
	for _, je := range jn.Events() {
		ev, err := je.event()
		if err != nil {
			t.Fatal(err)
		}
		fold.Apply(ev)
	}
	if st := fold.Status(); st.Active {
		t.Errorf("the journal folds to jobs still in flight: %+v", st)
	}
}

// TestStatusReplaysFromJournal: the status is one fold over the event
// stream, so folding the journal captured so far into a fresh fold gives
// CurrentStatus, mid-flight: two jobs, a cohort of two inside its window
// after a checkpointed start, another cohort finished, and cells of the
// second job joined from the first — one finished, one waiting.
func TestStatusReplaysFromJournal(t *testing.T) {
	freshStore()
	jn := NewJournal(JournalConfig{Capture: -1})
	SetJournal(jn)
	defer SetJournal(nil)
	s := New(Options{Workers: 3})
	defer s.Shutdown()
	g := newGate("A", "NAS-IS", "Randacc")
	defer sim.Subscribe(g.observe)()
	defer g.open("")

	p := sim.Params{Scale: workloads.TinyScale(), FastForward: 2_000, Warm: true, Warmup: 1_000, Measure: 4_000}
	wls := []string{"NAS-IS", "Randacc"}
	a := submitNamed(t, s, "A", []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.OoO)}, wls, p)
	g.waitHeld(t, 2)
	joins := resultJoins()
	b := submitNamed(t, s, "B", []sim.Config{sim.MachineConfig(sim.InO)}, wls, p)
	waitFor(t, "B's first cell to join A's", func() bool { return resultJoins() > joins })
	g.open("NAS-IS")
	finished := func() int {
		n := 0
		for _, ev := range jn.Events() {
			if ev.Ev == EvCellFinish {
				n++
			}
		}
		return n
	}
	waitFor(t, "A's NAS-IS cohort and B's joined cell to finish, and B's second cell to join",
		func() bool { return finished() == 3 && resultJoins() > joins+1 })

	live := sim.CurrentStatus()
	var fold sim.StatusFold
	for _, je := range jn.Events() {
		ev, err := je.event()
		if err != nil {
			t.Fatal(err)
		}
		fold.Apply(ev)
	}
	replayed := fold.Status()
	for _, st := range []*sim.GridStatus{&live, &replayed} {
		st.Elapsed, st.Rate, st.ETA, st.StreamBytes = 0, 0, 0, 0
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("journal replayed into a fresh fold:\n%+v\nCurrentStatus:\n%+v", replayed, live)
	}
	want := sim.GridStatus{Active: true, Cells: 6, Done: 3, Shared: 1, Replayed: 2, Running: 1,
		Cohorts: 1, CohortCells: 2}
	got := sim.GridStatus{Active: live.Active, Cells: live.Cells, Done: live.Done, Shared: live.Shared,
		Replayed: live.Replayed, Running: live.Running, Cohorts: live.Cohorts, CohortCells: live.CohortCells}
	if got != want || live.CkptWall <= 0 || live.Queued != 0 || live.Building != 0 {
		t.Errorf("mid-flight status %+v, want %+v with checkpoint wall and nothing queued or building", live, want)
	}

	g.open("")
	a.Wait()
	b.Wait()
}

// TestJobTraceShowsOnlyItsJob: every event is stamped with its own job,
// so one job's trace shows none of another's — not the productions of
// the job whose results it was served, nor the wait and join of a job
// that joined its cell in flight.
func TestJobTraceShowsOnlyItsJob(t *testing.T) {
	freshStore()
	jn := NewJournal(JournalConfig{Capture: -1})
	SetJournal(jn)
	defer SetJournal(nil)
	s := New(Options{Workers: 2})
	defer s.Shutdown()
	g := newGate("C", "HJ2")
	defer sim.Subscribe(g.observe)()
	defer g.open("")
	count := func(job, ev, class string) int {
		n := 0
		for _, e := range JobEvents(jn.Events(), job) {
			if e.Job != job {
				t.Errorf("JobEvents(%s) kept %+v", job, e)
			}
			if e.Ev == ev && (class == "" || e.Class == class) {
				n++
			}
		}
		return n
	}

	// A repeat of a finished job is served every cell from the store.
	p := sim.Params{Scale: workloads.TinyScale(), Warmup: 1_000, Measure: 4_321}
	cfgs := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.OoO)}
	first := submitNamed(t, s, "first", cfgs, []string{"Randacc"}, p)
	first.Wait()
	repeat := submitNamed(t, s, "repeat", cfgs, []string{"Randacc"}, p)
	repeat.Wait()
	if n := count(first.ID, EvArtifactProd, "result"); n != 2 {
		t.Fatalf("first job produced %d results, want 2", n)
	}
	if n := count(repeat.ID, EvArtifactProd, ""); n != 0 {
		t.Errorf("the repeat's trace shows %d productions, want none", n)
	}
	if n := count(repeat.ID, EvArtifactHit, "result"); n != 2 {
		t.Errorf("the repeat's trace shows %d result hits, want 2", n)
	}

	// A job that joins another's cell in flight keeps its wait and join.
	joins := resultJoins()
	c := submitNamed(t, s, "C", cfgs[:1], []string{"HJ2"}, p)
	g.waitHeld(t, 1)
	d := submitNamed(t, s, "D", cfgs[:1], []string{"HJ2"}, p)
	waitFor(t, "D to join C's cell", func() bool { return resultJoins() > joins })
	g.open("")
	c.Wait()
	d.Wait()
	if n := count(c.ID, EvArtifactJoin, ""); n != 0 {
		t.Errorf("C's trace shows %d joins, want none", n)
	}
	if n := count(d.ID, EvArtifactJoin, "result"); n != 1 {
		t.Errorf("D's trace shows %d result joins, want 1", n)
	}
	for _, ev := range JobEvents(jn.Events(), c.ID) {
		if ev.Ev == EvCellPhase && ev.Phase == sim.PhaseStoreWait.String() {
			t.Errorf("C's trace shows a store wait: %+v", ev)
		}
	}
}
