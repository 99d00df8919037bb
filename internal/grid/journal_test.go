package grid

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestJournalEventWireFormat: the hand-rolled renderer must agree byte
// for byte with encoding/json on the same struct tags, including the
// omitempty handling, so ValidateJournal's strict decode round-trips.
func TestJournalEventWireFormat(t *testing.T) {
	events := []JournalEvent{
		{TS: 0, Ev: EvJobSubmit, Job: "job-1", N: 16, Note: "smoke"},
		{TS: 12, Ev: EvCellQueue, Job: "job-1", Cell: "SVR16/BFS_KR"},
		{TS: 345, Ev: EvCellStart, Job: "job-1", Cell: "SVR16/BFS_KR", Seq: 3, Worker: 2, DurNS: 1500},
		{TS: 399, Ev: EvPhaseStart, Job: "job-1", Cell: "SVR16/BFS_KR", Phase: "timing"},
		{TS: 400, Ev: EvCellPhase, Job: "job-1", Cell: "SVR16/BFS_KR", Phase: "timing", DurNS: 99},
		{TS: 401, Ev: EvArtifactHit, Job: "job-1", Cell: `a"b/c`, Class: "result", Key: "k1", DurNS: 7},
		{TS: 500, Ev: EvArtifactEvict, Class: "stream", Key: "k2", N: 1 << 20},
		{TS: 600, Ev: EvCohortStart, Job: "job-1", Worker: 1, N: 4},
	}
	for _, ev := range events {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSON(nil, ev)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSON(%+v)\n got %s\nwant %s", ev, got, want)
		}
		var back JournalEvent
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Errorf("round trip changed event:\n got %+v\nwant %+v", back, ev)
		}
	}
	for k := sim.Kind(0); k < sim.NumKinds; k++ {
		ev, err := JournalEvent{Ev: evNames[k], Phase: "build"}.event()
		if err != nil || ev.Kind != k {
			t.Errorf("event kind %d is spelled %q, which reads back as %d (%v)", k, evNames[k], ev.Kind, err)
		}
	}
}

// TestJournalCapture: the ring keeps the last N events in order, the
// unbounded mode keeps everything, and timestamps never go backwards.
func TestJournalCapture(t *testing.T) {
	j := NewJournal(JournalConfig{Capture: 4})
	for i := 0; i < 10; i++ {
		j.record(JournalEvent{Ev: EvJobCancel, Job: "job-" + string(rune('0'+i))})
	}
	got := j.Events()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := "job-" + string(rune('6'+i)); ev.Job != want {
			t.Errorf("ring[%d] = %s, want %s", i, ev.Job, want)
		}
		if i > 0 && ev.TS < got[i-1].TS {
			t.Errorf("timestamps regress: %d after %d", ev.TS, got[i-1].TS)
		}
	}

	all := NewJournal(JournalConfig{Capture: -1})
	for i := 0; i < 10; i++ {
		all.record(JournalEvent{Ev: EvJobCancel, Job: "j"})
	}
	if n := len(all.Events()); n != 10 {
		t.Errorf("unbounded capture kept %d events, want 10", n)
	}

	off := NewJournal(JournalConfig{})
	off.record(JournalEvent{Ev: EvJobCancel, Job: "j"})
	if off.Captures() || len(off.Events()) != 0 {
		t.Error("capture-off journal retained events")
	}
}

// TestJournalSchedulerLifecycle: a job through a stub scheduler produces
// the documented event sequence, streamed as schema-valid JSONL.
func TestJournalSchedulerLifecycle(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(JournalConfig{Writer: &buf, Capture: -1})
	SetJournal(j)
	defer SetJournal(nil)

	s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
	defer s.Shutdown()
	job, err := s.Submit(JobRequest{Name: "lifecycle", Configs: labeled("A"),
		Workloads: []string{"Randacc", "HJ2"}, Params: sim.QuickParams()})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	// Every event of the job is in by the time Wait returns: each
	// cell.finish, then the job.done.
	SetJournal(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, ev := range j.Events() {
		counts[ev.Ev]++
	}
	want := map[string]int{EvJobSubmit: 1, EvCellQueue: 2, EvCellStart: 2, EvCellFinish: 2, EvJobDone: 1}
	for ev, n := range want {
		if counts[ev] != n {
			t.Errorf("%s count = %d, want %d (all: %v)", ev, counts[ev], n, counts)
		}
	}

	sum, err := ValidateJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("streamed journal fails its own schema: %v", err)
	}
	if sum.Lines != len(j.Events()) {
		t.Errorf("streamed %d lines, captured %d events", sum.Lines, len(j.Events()))
	}
	if sum.Events[EvJobDone] != 1 {
		t.Errorf("validator counted %d job.done, want 1", sum.Events[EvJobDone])
	}
}

// TestValidateJournalRejects: each malformed line is reported with its
// line number.
func TestValidateJournalRejects(t *testing.T) {
	cases := map[string]string{
		"unknown event":  `{"ts":1,"ev":"cell.explode"}`,
		"unknown field":  `{"ts":1,"ev":"job.done","job":"j","bogus":3}`,
		"missing job":    `{"ts":1,"ev":"job.done"}`,
		"missing worker": `{"ts":1,"ev":"cell.start","job":"j","cell":"a/b"}`,
		"bad phase":      `{"ts":1,"ev":"cell.phase","job":"j","cell":"a/b","phase":"warp"}`,
		"bad class":      `{"ts":1,"ev":"artifact.hit","job":"j","cell":"a/b","class":"tape"}`,
		"phase, no job":  `{"ts":1,"ev":"cell.phase","cell":"a/b","phase":"timing"}`,
		"finish after done": "{\"ts\":1,\"ev\":\"job.done\",\"job\":\"j\"}\n" +
			`{"ts":2,"ev":"cell.finish","job":"j","cell":"a/b","worker":1}`,
		"narrow cohort": `{"ts":1,"ev":"cohort.start","job":"j","worker":1,"n":1}`,
		"ts regression": "{\"ts\":5,\"ev\":\"job.cancel\",\"job\":\"j\"}\n{\"ts\":4,\"ev\":\"job.cancel\",\"job\":\"j\"}",
	}
	for name, stream := range cases {
		if _, err := ValidateJournal(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: validator accepted %q", name, stream)
		}
	}
	if _, err := ValidateJournal(strings.NewReader("")); err != nil {
		t.Errorf("empty stream rejected: %v", err)
	}
}

// TestJournalEmitOffDoesNotAllocate: with no journal installed the
// scheduler's emissions must stay allocation-free. Uninstalling a journal
// takes it off the event stream, and the grid status that stays
// subscribed folds a cell.finish without allocating.
func TestJournalEmitOffDoesNotAllocate(t *testing.T) {
	SetJournal(NewJournal(JournalConfig{Capture: -1}))
	SetJournal(nil)
	ev := sim.Event{Kind: sim.EvCellFinish, Job: "j", Label: "a", Workload: "b", Worker: 1}
	if n := testing.AllocsPerRun(1000, func() { sim.Emit(ev) }); n != 0 {
		t.Errorf("journal-off emission allocates %.1f times per call", n)
	}
}

// TestJobEvents: the per-job filter keeps the job's own events, its
// cells' phase and artifact events among them, and drops everything else.
func TestJobEvents(t *testing.T) {
	events := []JournalEvent{
		{Ev: EvJobSubmit, Job: "job-1"},
		{Ev: EvJobSubmit, Job: "job-2"},
		{Ev: EvCellStart, Job: "job-1", Cell: "A/w", Worker: 1},
		{Ev: EvCellStart, Job: "job-2", Cell: "B/w", Worker: 2},
		{Ev: EvCellPhase, Job: "job-1", Cell: "A/w", Phase: "timing", DurNS: 5},
		{Ev: EvCellPhase, Job: "job-2", Cell: "B/w", Phase: "timing", DurNS: 5},
		{Ev: EvArtifactEvict, Class: "stream", Key: "k", N: 9},
		{Ev: EvCellFinish, Job: "job-1", Cell: "A/w", Worker: 1},
	}
	got := JobEvents(events, "job-1")
	if len(got) != 4 {
		t.Fatalf("JobEvents kept %d events, want 4: %+v", len(got), got)
	}
	for _, ev := range got {
		if ev.Job == "job-2" || ev.Cell == "B/w" || ev.Ev == EvArtifactEvict {
			t.Errorf("foreign event leaked into job-1 view: %+v", ev)
		}
	}
}
