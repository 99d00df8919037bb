package sim

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
)

// TestPhaseTimesJSONRoundTrip: the wire form carries every phase under
// its stable name (nanoseconds), unknown keys are ignored, and missing
// keys read as zero.
func TestPhaseTimesJSONRoundTrip(t *testing.T) {
	var pt PhaseTimes
	pt.Add(PhaseBuild, 3*time.Millisecond)
	pt.Add(PhaseTiming, 2*time.Second)
	pt.Add(PhaseStoreWait, time.Microsecond)

	blob, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var asMap map[string]int64
	if err := json.Unmarshal(blob, &asMap); err != nil {
		t.Fatal(err)
	}
	if len(asMap) != int(NumPhases) {
		t.Errorf("wire form has %d keys, want %d (stable schema): %s", len(asMap), NumPhases, blob)
	}
	for _, p := range AllPhases() {
		if got, want := asMap[p.String()], int64(pt[p]); got != want {
			t.Errorf("%s = %d ns on the wire, want %d", p, got, want)
		}
	}

	var back PhaseTimes
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != pt {
		t.Errorf("round trip changed value: %v vs %v", back, pt)
	}

	var sparse PhaseTimes
	if err := json.Unmarshal([]byte(`{"timing":5,"warp":9}`), &sparse); err != nil {
		t.Fatal(err)
	}
	if sparse[PhaseTiming] != 5 || sparse.Total() != 5 {
		t.Errorf("sparse decode: %v, want timing=5 only", sparse)
	}
}

// TestParsePhase: every phase's String parses back to itself; junk and
// out-of-range values are handled.
func TestParsePhase(t *testing.T) {
	for _, p := range AllPhases() {
		got, err := ParsePhase(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePhase("warp"); err == nil {
		t.Error("ParsePhase accepted unknown phase")
	}
	if s := Phase(200).String(); s != "unknown" {
		t.Errorf("out-of-range Phase.String() = %q", s)
	}
}

// TestPhaseTimesArithmetic: Split apportions a cohort's shared cost
// evenly, AddAll folds, and out-of-range Add is a no-op.
func TestPhaseTimesArithmetic(t *testing.T) {
	var pt PhaseTimes
	pt.Add(PhaseRecord, 8*time.Second)
	pt.Add(PhaseDecode, 4*time.Second)
	pt.Add(NumPhases, time.Hour) // out of range: dropped
	if pt.Total() != 12*time.Second {
		t.Errorf("Total = %v, want 12s", pt.Total())
	}
	quarter := pt.Split(4)
	if quarter[PhaseRecord] != 2*time.Second || quarter[PhaseDecode] != time.Second {
		t.Errorf("Split(4) = %v", quarter)
	}
	if pt.Split(1) != pt || pt.Split(0) != pt {
		t.Error("Split(k<=1) must be the identity")
	}
	var sum PhaseTimes
	sum.AddAll(pt)
	sum.AddAll(quarter)
	if sum[PhaseRecord] != 10*time.Second {
		t.Errorf("AddAll: record = %v, want 10s", sum[PhaseRecord])
	}
}

// TestPhaseHooksDeliver: a subscriber sees a reporter's emissions
// stamped with its job and cell, and the same add() call banks into the
// accumulator.
func TestPhaseHooksDeliver(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	defer Subscribe(func(ev Event) {
		if ev.Job == t.Name() {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	})()

	var pt PhaseTimes
	r := reporterFor(&Tracker{Job: t.Name(), Worker: 3},
		CellRequest{Cfg: SVRConfig(16), Spec: mustSpec(t, "HJ2")}, &pt)
	r.enter(PhaseTiming)
	r.add(PhaseTiming, 5*time.Millisecond)
	r.add(PhaseTiming, 0) // non-positive segments are dropped
	r.artifact(artifact.Key{Class: artifact.Result, ID: "k"},
		artifact.Outcome{Hit: true}, time.Millisecond)

	want := []Event{
		{Kind: EvPhaseStart, Job: t.Name(), Label: "SVR16", Workload: "HJ2", Phase: PhaseTiming},
		{Kind: EvCellPhase, Job: t.Name(), Label: "SVR16", Workload: "HJ2", Phase: PhaseTiming, Dur: 5 * time.Millisecond},
		{Kind: EvArtifactHit, Job: t.Name(), Label: "SVR16", Workload: "HJ2",
			Key: artifact.Key{Class: artifact.Result, ID: "k"}, Dur: time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subscriber saw\n%+v\nwant\n%+v", got, want)
	}
	if pt[PhaseTiming] != 5*time.Millisecond {
		t.Errorf("accumulator got %v, want 5ms", pt[PhaseTiming])
	}
}

// TestEventsOffDoNotAllocate: with nothing subscribed, emitting any kind
// of event costs one atomic load: no allocation, no lock, so the
// scheduler is unchanged when nobody observes.
func TestEventsOffDoNotAllocate(t *testing.T) {
	saved := subscribers.Swap(nil)
	defer subscribers.Store(saved)
	k := artifact.Key{Class: artifact.Result, ID: "k"}
	if n := testing.AllocsPerRun(1000, func() {
		for kind := Kind(0); kind < NumKinds; kind++ {
			Emit(Event{Kind: kind, Job: "job-1", Label: "SVR16", Workload: "HJ2",
				Seq: 3, Worker: 1, Key: k, Dur: time.Millisecond, N: 8, Note: "n"})
		}
	}); n != 0 {
		t.Errorf("emission with no subscriber allocates %.1f times per call", n)
	}
}

// TestPhaseEmitOffDoesNotAllocate: with nothing subscribed, a cell's
// reporter banks its phases and reports its phase and artifact events
// without an allocation, so cell execution is unchanged when nobody
// observes.
func TestPhaseEmitOffDoesNotAllocate(t *testing.T) {
	saved := subscribers.Swap(nil)
	defer subscribers.Store(saved)
	var pt PhaseTimes
	r := reporterFor(&Tracker{Job: "job-1", Worker: 1},
		CellRequest{Cfg: SVRConfig(16), Spec: mustSpec(t, "HJ2")}, &pt)
	k := artifact.Key{Class: artifact.Result, ID: "k"}
	if n := testing.AllocsPerRun(1000, func() {
		r.enter(PhaseTiming)
		r.add(PhaseTiming, time.Millisecond)
		r.artifact(k, artifact.Outcome{Waited: true}, time.Millisecond)
	}); n != 0 {
		t.Errorf("reporter emission with no subscriber allocates %.1f times per call", n)
	}
}

// TestCellPhasesCoverWall: a fresh (uncached) quick cell must attribute
// nearly all of its wall time to phases — the build remainder rule means
// the decomposition sums to the measured wall, minus only the few
// time.Now seams between segments.
func TestCellPhasesCoverWall(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	req := CellRequest{Cfg: SVRConfig(16), Spec: mustSpec(t, "Randacc"), P: QuickParams()}
	_, out := executeOne(req, nil)
	if out.Cached || out.Shared {
		t.Fatalf("expected a fresh simulation, got %+v", out)
	}
	if out.Wall <= 0 {
		t.Fatalf("no wall time measured: %+v", out)
	}
	total := out.Phases.Total()
	if total < out.Wall*8/10 || total > out.Wall*21/20 {
		t.Errorf("phases attribute %v of %v wall (%.1f%%), want within [80%%, 105%%]\n%v",
			total, out.Wall, 100*float64(total)/float64(out.Wall), out.Phases)
	}
	if out.Phases[PhaseTiming] <= 0 {
		t.Errorf("fresh cell reports no timing phase: %v", out.Phases)
	}
}

// TestCurrentStatusAggregatesTrackers: concurrent jobs fold into one
// grid view — cells, completions, cohorts and phase wall all sum. Deltas
// against the pre-test snapshot keep the test independent of other jobs
// in flight.
func TestCurrentStatusAggregatesTrackers(t *testing.T) {
	base := CurrentStatus()
	j1, j2 := t.Name()+"-1", t.Name()+"-2"
	Emit(Event{Kind: EvJobSubmit, Job: j1, N: 4})
	defer Emit(Event{Kind: EvJobDone, Job: j1})
	Emit(Event{Kind: EvJobSubmit, Job: j2, N: 6})
	defer Emit(Event{Kind: EvJobDone, Job: j2})

	finish := func(job string, seq int, out CellOutcome, instrs int64) {
		Emit(Event{Kind: EvCellStart, Job: job, Label: "A", Workload: "w", Seq: seq, Worker: 1})
		Emit(Event{Kind: EvCellFinish, Job: job, Label: "A", Workload: "w", Seq: seq, Worker: 1, N: instrs, Out: out})
	}
	finish(j1, 0, CellOutcome{}, 1000)
	finish(j2, 0, CellOutcome{Cached: true}, 500)
	Emit(Event{Kind: EvCohortFinish, Job: j2, Worker: 1, N: 3})
	Emit(Event{Kind: EvCellPhase, Job: j1, Label: "A", Workload: "w", Phase: PhaseTiming, Dur: 3 * time.Second})
	Emit(Event{Kind: EvCellPhase, Job: j1, Label: "A", Workload: "w", Phase: PhaseBuild, Dur: time.Second})
	Emit(Event{Kind: EvCellPhase, Job: j2, Label: "A", Workload: "w", Phase: PhaseTiming, Dur: 5 * time.Second})
	// A cell in flight is neither queued nor done.
	Emit(Event{Kind: EvCellStart, Job: j2, Label: "B", Workload: "w", Seq: 1, Worker: 2})

	s := CurrentStatus()
	if !s.Active {
		t.Fatal("jobs in flight but CurrentStatus reports inactive")
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Cells", int64(s.Cells - base.Cells), 10},
		{"Done", int64(s.Done - base.Done), 2},
		{"Queued", int64(s.Queued - base.Queued), 7},
		{"Cached", int64(s.Cached - base.Cached), 1},
		{"Instrs", int64(s.Instrs - base.Instrs), 1500},
		{"CohortCells", int64(s.CohortCells - base.CohortCells), 3},
		{"PhaseWall[timing]", int64(s.PhaseWall[PhaseTiming] - base.PhaseWall[PhaseTiming]), int64(8 * time.Second)},
		{"PhaseWall[build]", int64(s.PhaseWall[PhaseBuild] - base.PhaseWall[PhaseBuild]), int64(time.Second)},
	} {
		if c.got != c.want {
			t.Errorf("%s delta = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestStatusFoldLifecycle: the fold's state machine on a fresh fold — a
// running cohort counted by the phase it works in, the production
// segments banked as checkpoint and recording wall, cancel dropping the
// queued cells, the job leaving once its running cells drain, and
// resume bringing it back.
func TestStatusFoldLifecycle(t *testing.T) {
	var f StatusFold
	phase := func(kind Kind, p Phase, d time.Duration) {
		f.Apply(Event{Kind: kind, Job: "j", Label: "A", Workload: "w", Phase: p, Dur: d})
	}
	f.Apply(Event{Kind: EvJobSubmit, Job: "j", N: 3})
	f.Apply(Event{Kind: EvCellStart, Job: "j", Label: "A", Workload: "w", Worker: 1})
	f.Apply(Event{Kind: EvCellStart, Job: "j", Label: "B", Workload: "w", Seq: 1, Worker: 1})
	type gauges struct{ queued, building, ckpt, rec, running int }
	check := func(when string, want gauges) {
		t.Helper()
		s := f.Status()
		if got := (gauges{s.Queued, s.Building, s.Checkpointing, s.Recording, s.Running}); got != want {
			t.Errorf("%s: queued/building/checkpointing/recording/running = %+v, want %+v", when, got, want)
		}
	}
	phase(EvPhaseStart, PhaseBuild, 0)
	check("run begins", gauges{1, 1, 0, 0, 0})
	phase(EvPhaseStart, PhaseFastForward, 0)
	check("checkpointing", gauges{1, 0, 1, 0, 0})
	phase(EvCellPhase, PhaseFastForward, 7)
	phase(EvCellPhase, PhaseFastForward, 100) // settle: not a production
	phase(EvPhaseStart, PhaseRecord, 0)
	check("recording", gauges{1, 0, 0, 1, 0})
	phase(EvCellPhase, PhaseRecord, 5)
	phase(EvPhaseStart, PhaseTiming, 0)
	check("in a window", gauges{1, 0, 0, 0, 1})
	phase(EvCellPhase, PhaseDecode, 2)
	phase(EvCellPhase, PhaseTiming, 3)
	check("window done", gauges{1, 1, 0, 0, 0})
	phase(EvCellPhase, PhaseBuild, 1)
	check("run ends", gauges{1, 0, 0, 0, 0})
	if s := f.Status(); s.CkptWall != 7 || s.RecWall != 5 || s.PhaseWall.Total() != 118 {
		t.Errorf("checkpoint wall %d, recording wall %d, phase wall %d; want 7, 5, 118", s.CkptWall, s.RecWall, s.PhaseWall.Total())
	}

	f.Apply(Event{Kind: EvJobCancel, Job: "j"})
	if s := f.Status(); !s.Active || s.Cells != 2 || s.Queued != 0 {
		t.Errorf("canceled with two cells running: %+v", s)
	}
	f.Apply(Event{Kind: EvCellFinish, Job: "j", Label: "A", Workload: "w", Worker: 1})
	f.Apply(Event{Kind: EvCellFinish, Job: "j", Label: "B", Workload: "w", Seq: 1, Worker: 1})
	if s := f.Status(); s.Active {
		t.Errorf("canceled job still in flight after its running cells finished: %+v", s)
	}
	f.Apply(Event{Kind: EvCellPhase, Job: "j", Label: "A", Workload: "w", Phase: PhaseTiming, Dur: 9})
	f.Apply(Event{Kind: EvJobResume, Job: "j", N: 1})
	if s := f.Status(); s.Cells != 1 || s.Queued != 1 || s.Done != 0 || s.PhaseWall.Total() != 0 {
		t.Errorf("resumed job: %+v", s)
	}
	f.Apply(Event{Kind: EvJobDone, Job: "j"})
	if s := f.Status(); s.Active {
		t.Errorf("done job still in flight: %+v", s)
	}
}

// TestProjectETASteady: the windowed projection shrinks as wall time
// passes with no new completions (no sawtooth), and the pre-window
// fallback still projects from completion counts.
func TestProjectETASteady(t *testing.T) {
	now := time.Now()
	s := GridStatus{Active: true, Cells: 100, Done: 32, Instrs: 32e6, Elapsed: 20 * time.Second}
	win := rateWindow{instrs: 16e6, span: 8 * time.Second, last: now.Add(-2 * time.Second)}

	// rate = 2M instr/s, 68 cells × 1M instr left = 34s, minus the 2s
	// since the last completion: 32s.
	eta := projectETA(&s, win, now)
	if eta < 31*time.Second || eta > 33*time.Second {
		t.Errorf("ETA = %v, want ≈32s", eta)
	}
	// Three more wall seconds, no new completions: a count-based
	// projection would not move; the windowed one must keep shrinking.
	eta2 := projectETA(&s, win, now.Add(3*time.Second))
	if eta2 >= eta {
		t.Errorf("ETA did not shrink with wall time: %v then %v", eta, eta2)
	}
	if diff := eta - eta2 - 3*time.Second; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("ETA shrank by %v over 3s of wall", eta-eta2)
	}
	// The floor: never report zero (= unknown) for an in-flight grid.
	if eta3 := projectETA(&s, win, now.Add(time.Hour)); eta3 != time.Second {
		t.Errorf("ETA floor = %v, want 1s", eta3)
	}
	// No measured window yet: fall back to completion counts, with the
	// shared production wall excluded. (20s-4s)/32 done × 68 left = 34s.
	s.CkptWall, s.RecWall = 3*time.Second, time.Second
	fallback := projectETA(&s, rateWindow{}, now)
	if fallback != 34*time.Second {
		t.Errorf("fallback ETA = %v, want 34s", fallback)
	}
}
