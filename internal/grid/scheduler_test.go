package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// labeled returns a single-config grid whose label identifies the job in
// the stub executor.
func labeled(label string) []sim.Config {
	cfg := sim.MachineConfig(sim.InO)
	cfg.Label = label
	return []sim.Config{cfg}
}

// stubResult fabricates a plausible Result without simulating.
func stubResult(req sim.CellRequest) sim.Result {
	return sim.Result{Workload: req.Spec.Name, Label: req.Cfg.Label, Instrs: req.P.Measure}
}

// TestPriorityOrdering: with one worker pinned by a running cell, later
// submissions drain strictly by priority (high first), not FIFO.
func TestPriorityOrdering(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Options{Workers: 1, Execute: func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		started <- req.Cfg.Label
		<-release
		return stubResult(req), sim.CellOutcome{}
	}})
	defer s.Shutdown()

	submit := func(label string, pri int) *Job {
		j, err := s.Submit(JobRequest{Name: label, Priority: pri, Configs: labeled(label), Workloads: []string{"Randacc"}, Params: sim.QuickParams()})
		if err != nil {
			t.Fatalf("submit %s: %v", label, err)
		}
		return j
	}
	ja := submit("A", 0)
	if got := <-started; got != "A" {
		t.Fatalf("first started cell %q, want A", got)
	}
	// The worker is busy inside A; these queue up.
	jb := submit("B", 1)
	jc := submit("C", 5)
	close(release)
	if got := <-started; got != "C" {
		t.Errorf("second started cell %q, want C (priority 5 beats 1)", got)
	}
	if got := <-started; got != "B" {
		t.Errorf("third started cell %q, want B", got)
	}
	for _, j := range []*Job{ja, jb, jc} {
		j.Wait()
		if st := j.Status(); st.State != StateDone || st.Done != 1 {
			t.Errorf("job %s: %+v", j.Name, st)
		}
	}
}

// TestQueueBackpressure: a job that would overflow the bounded queue is
// rejected atomically with the typed error.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueCap: 3, Execute: func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		<-release
		return stubResult(req), sim.CellOutcome{}
	}})
	defer func() { close(release); s.Shutdown() }()

	// Pin the worker so queued cells stay queued.
	pin, err := s.Submit(JobRequest{Configs: labeled("pin"), Workloads: []string{"Randacc"}, Params: sim.QuickParams()})
	if err != nil {
		t.Fatal(err)
	}
	for { // wait until the pin cell is popped (queue empty)
		if s.QueueDepth() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var cfgs []sim.Config
	for _, l := range []string{"a", "b", "c", "d"} {
		cfgs = append(cfgs, labeled(l)[0])
	}
	_, err = s.Submit(JobRequest{Configs: cfgs, Workloads: []string{"Randacc"}, Params: sim.QuickParams()})
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("submit past capacity: err = %v, want *ErrQueueFull", err)
	}
	if full.Requested != 4 || full.Capacity != 3 {
		t.Errorf("typed error %+v, want Requested 4 / Capacity 3", full)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Errorf("rejected job left %d cells enqueued", d)
	}
	if got := len(s.Jobs()); got != 1 {
		t.Errorf("rejected job left a job record (%d jobs)", got)
	}
	_ = pin
}

// TestCancelResume: canceling mid-cell lets the running cell finish and
// drops the queued remainder; resume re-enqueues exactly that remainder
// and completes the job.
func TestCancelResume(t *testing.T) {
	release := make(chan struct{})
	s := New(Options{Workers: 1, Execute: func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		<-release
		return stubResult(req), sim.CellOutcome{}
	}})
	defer s.Shutdown()

	var cfgs []sim.Config
	for _, l := range []string{"c0", "c1", "c2"} {
		cfgs = append(cfgs, labeled(l)[0])
	}
	j, err := s.Submit(JobRequest{Name: "cr", Configs: cfgs, Workloads: []string{"Randacc"}, Params: sim.QuickParams()})
	if err != nil {
		t.Fatal(err)
	}
	for j.Status().Running == 0 { // first cell picked up
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // let the in-flight cell finish
	j.Wait()              // terminal: canceled with the running cell drained
	st := j.Status()
	if st.State != StateCanceled || st.Done != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("after cancel: %+v", st)
	}
	if err := s.Cancel(j.ID); err == nil {
		t.Error("second cancel should fail")
	}

	if err := s.Resume(j.ID); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	release <- struct{}{}
	rs := j.Wait()
	st = j.Status()
	if st.State != StateDone || st.Done != 3 {
		t.Fatalf("after resume: %+v", st)
	}
	if len(rs.Cells) != 3 {
		t.Fatalf("result set has %d cells, want 3", len(rs.Cells))
	}
	if err := s.Resume(j.ID); err == nil {
		t.Error("resume of a done job should fail")
	}
}

// TestCrossJobDedup: two identical jobs submitted concurrently produce
// every distinct cell exactly once between them — the second caller is
// served from the unified store (resident or joined in flight) — and the
// results are bit-identical to a cold, uncached run. Run under -race.
func TestCrossJobDedup(t *testing.T) {
	p := sim.Params{Scale: workloads.TinyScale(), Warmup: 1_000, Measure: 10_000}
	cfgs := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP)}
	wls := []string{"Randacc", "PR_KR"}

	// Cold reference: every cell simulated fresh, no memoization.
	specs, err := ResolveWorkloads(wls)
	if err != nil {
		t.Fatal(err)
	}
	prev := sim.SetRunCacheEnabled(false)
	ref := sim.RunMatrixSerial(cfgs, specs, p)
	sim.SetRunCacheEnabled(prev)
	defer sim.SetRunCacheEnabled(prev)
	sim.ResetRunCache()

	s := New(Options{Workers: 4})
	defer s.Shutdown()
	req := JobRequest{Configs: cfgs, Workloads: wls, Params: p}
	var jobs [2]*Job
	var wg sync.WaitGroup
	for i := range jobs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
			j.Wait()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	cells := len(cfgs) * len(wls)
	fromStore := 0
	for _, j := range jobs {
		st := j.Status()
		if st.State != StateDone || st.Done != cells {
			t.Fatalf("job %s: %+v", j.ID, st)
		}
		fromStore += st.CachedCells + st.SharedCells
	}
	// 2×cells requests over cells distinct keys: exactly cells of them
	// must have been served from the store instead of simulated.
	if fromStore != cells {
		t.Errorf("store served %d cells across both jobs, want %d", fromStore, cells)
	}

	for _, j := range jobs {
		rs := j.ResultSet()
		for _, cfg := range cfgs {
			for _, wl := range wls {
				got, ok1 := rs.Get(cfg.Label, wl)
				want, ok2 := ref.Get(cfg.Label, wl)
				if !ok1 || !ok2 {
					t.Fatalf("missing cell %s/%s (served %v, reference %v)", cfg.Label, wl, ok1, ok2)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cell %s/%s differs from the cold reference", cfg.Label, wl)
				}
			}
		}
	}
}

// TestSaveLoadState: unfinished jobs survive a shutdown via the state
// file and resubmit on a fresh scheduler.
func TestSaveLoadState(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Options{Workers: 1, Execute: func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubResult(req), sim.CellOutcome{}
	}})
	// Two cells on one worker: the first drains during shutdown, the
	// second is still queued — so the job is unfinished and persists.
	if _, err := s.Submit(JobRequest{Name: "keep", Priority: 2,
		Configs: []sim.Config{sim.SVRConfig(16), sim.SVRConfig(32)}, Workloads: []string{"Randacc"},
		Params: sim.QuickParams()}); err != nil {
		t.Fatal(err)
	}
	<-started // the first cell is in flight
	go func() {
		// Let Shutdown close the queue before the in-flight cell can
		// finish, so the worker exits instead of taking the second cell.
		time.Sleep(100 * time.Millisecond)
		release <- struct{}{}
	}()
	s.Shutdown()

	path := t.TempDir() + "/state.json"
	if err := s.SaveState(path); err != nil {
		t.Fatal(err)
	}

	done := func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		return stubResult(req), sim.CellOutcome{}
	}
	s2 := New(Options{Workers: 1, Execute: done})
	defer s2.Shutdown()
	n, err := s2.LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d jobs, want 1", n)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].Name != "keep" || jobs[0].Priority != 2 {
		t.Fatalf("restored job %+v", jobs[0])
	}
	jobs[0].Wait()
	if st := jobs[0].Status(); st.State != StateDone {
		t.Errorf("restored job did not finish: %+v", st)
	}

	// Missing file: nothing to restore, no error.
	if n, err := s2.LoadState(path + ".missing"); err != nil || n != 0 {
		t.Errorf("missing state file: n=%d err=%v", n, err)
	}
}

// TestSaveStateAtomic: a save that fails before its commit point (the
// rename over the target) leaves the previous state file byte-for-byte
// unchanged and loadable, and no temporary file behind.
func TestSaveStateAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	prev, err := json.MarshalIndent(persistedState{Jobs: []persistedJob{{
		Name: "keep", Configs: []sim.Config{sim.SVRConfig(16)}, Workloads: []string{"Randacc"},
		Params: sim.QuickParams(),
	}}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}

	done := func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		return stubResult(req), sim.CellOutcome{}
	}
	s := New(Options{Workers: 1, Execute: done})
	s.Shutdown()
	rename := renameFile
	renameFile = func(string, string) error { return errors.New("crash before rename") }
	err = s.SaveState(path) // an empty queue: different bytes, had it landed
	renameFile = rename
	if err == nil {
		t.Fatal("save reported success with a failing rename")
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Errorf("failed save changed the state file:\n%s", got)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("state dir holds %d entries after a failed save (err %v), want only the state file", len(entries), err)
	}
	s2 := New(Options{Workers: 1, Execute: done})
	defer s2.Shutdown()
	if n, err := s2.LoadState(path); err != nil || n != 1 {
		t.Fatalf("previous state: restored %d jobs, err %v; want 1", n, err)
	}
	s2.Jobs()[0].Wait()
}
