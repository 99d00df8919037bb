package grid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
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

// stubGroup fabricates every member's result of a queue item, each
// served as out.
func stubGroup(reqs []sim.CellRequest, out sim.CellOutcome) ([]sim.Result, []sim.CellOutcome) {
	results := make([]sim.Result, len(reqs))
	outs := make([]sim.CellOutcome, len(reqs))
	for i, r := range reqs {
		results[i], outs[i] = stubResult(r), out
	}
	return results, outs
}

// stubExecute is an ExecuteGroup that simulates nothing.
func stubExecute(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
	return stubGroup(reqs, sim.CellOutcome{})
}

// TestPriorityOrdering: with one worker pinned by a running cell, later
// submissions drain strictly by priority (high first), not FIFO.
func TestPriorityOrdering(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- reqs[0].Cfg.Label
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
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
	s := New(Options{Workers: 1, QueueCap: 3, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
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

// TestRejectedSubmitKeepsJobList: a submit the queue rejects leaves the
// job list as it was, whatever a concurrent accepted submit did between
// its registration and its push. The test holds the queue's lock so that
// both submits are under way before either pushes, the rejected one
// first.
func TestRejectedSubmitKeepsJobList(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 2, ExecuteGroup: stubExecute})
	defer s.Shutdown()
	p := sim.QuickParams()
	var big []sim.Config
	for _, l := range []string{"a", "b", "c"} {
		big = append(big, labeled(l)[0])
	}

	s.q.mu.Lock()
	base := jobIDs.Load()
	errs := make(chan error, 2)
	submit := func(cfgs []sim.Config) {
		_, err := s.Submit(JobRequest{Configs: cfgs, Workloads: []string{"Randacc"}, Params: p})
		errs <- err
	}
	go submit(big) // three cells: more than the queue holds
	waitFor(t, "the rejected submit to take its ID", func() bool { return jobIDs.Load() == base+1 })
	go submit(labeled("small"))
	waitFor(t, "the accepted submit to take its ID", func() bool { return jobIDs.Load() == base+2 })
	s.q.mu.Unlock()

	var full *ErrQueueFull
	rejected := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; errors.As(err, &full) {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if rejected != 1 {
		t.Fatalf("%d submits rejected, want 1", rejected)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0] == nil || jobs[0].cfgs[0].Label != "small" {
		t.Fatalf("job list %v, want the accepted job once", jobs)
	}
	jobs[0].Wait()
}

// TestCancelResume: canceling mid-cell lets the running cell finish and
// drops the queued remainder; resume re-enqueues exactly that remainder
// and completes the job. Three workloads make three queue items.
func TestCancelResume(t *testing.T) {
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	defer s.Shutdown()

	j, err := s.Submit(JobRequest{Name: "cr", Configs: labeled("c"), Workloads: []string{"Randacc", "HJ2", "NAS-IS"},
		Params: sim.QuickParams()})
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
	if n := len(rs.Cells()); n != 3 {
		t.Fatalf("result set has %d cells, want 3", n)
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
		rs := j.Wait()
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

// TestEightMachinesPlanOneCohort: the eight machines of a fig1 column
// (every config of one workload window) run as one lockstep cohort of
// width 8, so the window is recorded once and each chunk decoded once
// for all of them. Narrower groups would change no result, only cost
// throughput, so this is the check that catches a planner that splits
// them.
func TestEightMachinesPlanOneCohort(t *testing.T) {
	var cfgs []sim.Config
	for _, name := range []string{"inorder", "imp", "ooo", "svr8", "svr16", "svr32", "svr64", "svr128"} {
		cfg, err := ParseConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	specs, err := ResolveWorkloads([]string{"NAS-IS"})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.SetRunCacheEnabled(sim.SetRunCacheEnabled(false))
	jn := NewJournal(JournalConfig{Capture: -1})
	SetJournal(jn)
	defer SetJournal(nil)

	s := New(Options{Workers: 2})
	defer s.Shutdown()
	rs := s.RunMatrix(cfgs, specs, sim.Params{Scale: workloads.TinyScale(), Warmup: 1_000, Measure: 10_000})
	s.Shutdown()
	SetJournal(nil)
	if n := len(rs.Cells()); n != len(cfgs) {
		t.Fatalf("result set has %d cells, want %d", n, len(cfgs))
	}
	var widths []int64
	for _, ev := range jn.Events() {
		if ev.Ev == EvCohortStart {
			widths = append(widths, ev.N)
		}
	}
	if !reflect.DeepEqual(widths, []int64{8}) {
		t.Errorf("cohort.start widths = %v, want [8]", widths)
	}
}

// TestSaveLoadState: unfinished jobs survive a shutdown via the state
// file and resubmit on a fresh scheduler.
func TestSaveLoadState(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	// Two cohorts on one worker: the first drains during shutdown, the
	// second is still queued — so the job is unfinished and persists.
	if _, err := s.Submit(JobRequest{Name: "keep", Priority: 2,
		Configs: []sim.Config{sim.SVRConfig(16), sim.SVRConfig(32)}, Workloads: []string{"Randacc", "HJ2"},
		Params: sim.QuickParams()}); err != nil {
		t.Fatal(err)
	}
	<-started // the first cohort is in flight
	go func() {
		// Let Shutdown close the queue before the in-flight cohort can
		// finish, so the worker exits instead of taking the second one.
		time.Sleep(100 * time.Millisecond)
		release <- struct{}{}
	}()
	s.Shutdown()

	path := t.TempDir() + "/state.json"
	if err := s.SaveState(path); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 1, ExecuteGroup: stubExecute})
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

// TestWaitReturnsAfterShutdown: Shutdown abandons a job's queued cells,
// so Wait must return the cells that finished instead of blocking for
// the abandoned ones, and Result must stop past the last of them.
func TestWaitReturnsAfterShutdown(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	j, err := s.Submit(JobRequest{Name: "abandoned", Configs: labeled("c"), Workloads: []string{"Randacc", "HJ2"},
		Params: sim.QuickParams()})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is pinned inside the first cell
	shut := make(chan struct{})
	go func() {
		s.Shutdown()
		close(shut)
	}()
	// Release the worker once the queue is closed, so it exits instead
	// of taking the second cell.
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		s.q.mu.Lock()
		closed = s.q.closed
		s.q.mu.Unlock()
	}
	close(release)
	<-shut

	waited := make(chan *sim.ResultSet, 1)
	go func() { waited <- j.Wait() }()
	select {
	case rs := <-waited:
		if n := len(rs.Cells()); n != 1 {
			t.Fatalf("Wait returned %d cells, want the 1 that finished", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Wait still blocked 5 s after Shutdown: %+v", j.Status())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, ok := j.Result(ctx, 1); ok || ctx.Err() != nil {
		t.Fatalf("Result(1) = %v after Shutdown (ctx err %v), want an immediate miss", ok, ctx.Err())
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

	s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
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
	s2 := New(Options{Workers: 1, ExecuteGroup: stubExecute})
	defer s2.Shutdown()
	if n, err := s2.LoadState(path); err != nil || n != 1 {
		t.Fatalf("previous state: restored %d jobs, err %v; want 1", n, err)
	}
	s2.Jobs()[0].Wait()
}

// killSaveStates are the two state files TestKillDuringSave alternates:
// one job, and sixteen jobs of eight machines each, so a torn write of
// either cannot pass for the other.
func killSaveStates() [2][]byte {
	var small, large persistedState
	small.Jobs = []persistedJob{{Name: "small", Configs: []sim.Config{sim.SVRConfig(16)},
		Workloads: []string{"Randacc"}, Params: sim.QuickParams()}}
	for i := 0; i < 16; i++ {
		pj := persistedJob{Name: fmt.Sprintf("large-%d", i), Priority: i,
			Workloads: []string{"BFS_KR", "HJ2"}, Params: sim.QuickParams()}
		for _, n := range []int{8, 16, 32, 64, 128} {
			pj.Configs = append(pj.Configs, sim.SVRConfig(n))
		}
		pj.Configs = append(pj.Configs, sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP), sim.MachineConfig(sim.OoO))
		large.Jobs = append(large.Jobs, pj)
	}
	var out [2][]byte
	for i, st := range []persistedState{small, large} {
		blob, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			panic(err)
		}
		out[i] = append(blob, '\n') // the bytes SaveState writes
	}
	return out
}

// TestKillDuringSave: a SIGKILL anywhere inside a state save leaves the
// previous state file or the new one, whole. The test re-executes its
// own binary as a helper that rewrites the file through writeFileAtomic
// in a tight loop, alternating two states, and kills it at a random
// point. After each kill the file must equal one of the two byte for
// byte and LoadState must restore every job in it. (A killed save may
// leave its temporary file behind; only the state path is checked.)
func TestKillDuringSave(t *testing.T) {
	states := killSaveStates()
	if path := os.Getenv("GRID_TEST_SAVE_LOOP"); path != "" {
		// Helper: one complete save, a ready line, then saves until
		// killed. The deadline stops an orphan whose parent died.
		if err := writeFileAtomic(path, states[0]); err != nil {
			t.Fatal(err)
		}
		fmt.Println("ready")
		for i, end := 1, time.Now().Add(10*time.Second); time.Now().Before(end); i++ {
			if err := writeFileAtomic(path, states[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "state.json")
	for iter := 0; iter < 8; iter++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillDuringSave$")
		cmd.Env = append(os.Environ(), "GRID_TEST_SAVE_LOOP="+path)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		var early []string // the helper's output before "ready": its failure, if any
		for sc.Scan() && sc.Text() != "ready" {
			early = append(early, sc.Text())
		}
		if sc.Text() != "ready" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper did not start: %v\n%s\n%s", sc.Err(), strings.Join(early, "\n"), stderr.Bytes())
		}
		time.Sleep(time.Duration(rng.Int63n(int64(20 * time.Millisecond))))
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // reports the kill

		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("kill %d: %v", iter, err)
		}
		var want int
		switch {
		case bytes.Equal(got, states[0]):
			want = 1
		case bytes.Equal(got, states[1]):
			want = 16
		default:
			t.Fatalf("kill %d: state file is neither saved state (%d bytes)", iter, len(got))
		}
		s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
		n, err := s.LoadState(path)
		s.Shutdown()
		if err != nil || n != want {
			t.Fatalf("kill %d: LoadState restored %d jobs, err %v; want %d", iter, n, err, want)
		}
	}
	// Each leftover temporary file is a kill that landed inside a save.
	tmps, _ := filepath.Glob(path + ".tmp*")
	t.Logf("%d of 8 kills landed inside a save", len(tmps))
}
