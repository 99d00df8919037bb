package grid

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a deterministic journal: one job of three cells on two
// workers, one cohort, a produced-then-consumed artifact, and an
// eviction — every renderer path in one stream.
func goldenEvents() []JournalEvent {
	return []JournalEvent{
		{TS: 0, Ev: EvJobSubmit, Job: "job-1", N: 3, Note: "golden"},
		{TS: 1_000, Ev: EvCellQueue, Job: "job-1", Cell: "SVR16/BFS_KR"},
		{TS: 1_100, Ev: EvCellQueue, Job: "job-1", Cell: "SVR32/BFS_KR", Seq: 1},
		{TS: 1_200, Ev: EvCellQueue, Job: "job-1", Cell: "OoO/HJ2", Seq: 2},
		{TS: 5_000, Ev: EvCellStart, Job: "job-1", Cell: "SVR16/BFS_KR", Worker: 1, DurNS: 4_000},
		{TS: 6_000, Ev: EvCellStart, Job: "job-1", Cell: "OoO/HJ2", Seq: 2, Worker: 2, DurNS: 4_800},
		{TS: 40_000, Ev: EvArtifactProd, Job: "job-1", Cell: "SVR16/BFS_KR", Class: "stream", Key: "s1", DurNS: 30_000},
		{TS: 90_000, Ev: EvCellPhase, Job: "job-1", Cell: "SVR16/BFS_KR", Phase: "record", DurNS: 30_000},
		{TS: 95_000, Ev: EvCellPhase, Job: "job-1", Cell: "SVR16/BFS_KR", Phase: "timing", DurNS: 50_000},
		{TS: 100_000, Ev: EvCellFinish, Job: "job-1", Cell: "SVR16/BFS_KR", Worker: 1, DurNS: 95_000, Note: "simulated"},
		{TS: 105_000, Ev: EvCellStart, Job: "job-1", Cell: "SVR32/BFS_KR", Seq: 1, Worker: 1, DurNS: 103_900},
		{TS: 110_000, Ev: EvCohortStart, Job: "job-1", Worker: 1, N: 2},
		{TS: 120_000, Ev: EvArtifactHit, Job: "job-1", Cell: "SVR32/BFS_KR", Class: "stream", Key: "s1", DurNS: 100},
		{TS: 150_000, Ev: EvCellPhase, Job: "job-1", Cell: "SVR32/BFS_KR", Phase: "decode", DurNS: 10_000},
		{TS: 160_000, Ev: EvCellPhase, Job: "job-1", Cell: "SVR32/BFS_KR", Phase: "timing", DurNS: 35_000},
		{TS: 170_000, Ev: EvCohortFinish, Job: "job-1", Worker: 1, N: 2, DurNS: 60_000},
		{TS: 175_000, Ev: EvCellFinish, Job: "job-1", Cell: "SVR32/BFS_KR", Seq: 1, Worker: 1, DurNS: 70_000, Note: "replayed"},
		{TS: 176_000, Ev: EvArtifactEvict, Class: "stream", Key: "s1", N: 4096},
		{TS: 180_000, Ev: EvCellFinish, Job: "job-1", Cell: "OoO/HJ2", Seq: 2, Worker: 2, DurNS: 174_000, Note: "simulated"},
		{TS: 181_000, Ev: EvJobDone, Job: "job-1", DurNS: 181_000},
	}
}

// TestGridTraceGolden pins the whole trace rendering — track metadata,
// cell and phase slices, async job/cohort spans, artifact flow arrows —
// against a committed golden file. Regenerate with `go test -run
// GridTraceGolden ./internal/grid -update` after intentional changes.
func TestGridTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	// Golden is stored indented for reviewable diffs.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, buf.Bytes(), "", "  "); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pretty.WriteByte('\n')

	golden := filepath.Join("testdata", "gridtrace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(pretty.Bytes(), want) {
		t.Errorf("trace drifted from golden file %s (re-run with -update if intended)\ngot:\n%s", golden, pretty.Bytes())
	}
}

// TestGridTraceShape spot-checks semantic properties the golden bytes
// can't explain: phase slices stay inside their cell slice, and the
// artifact flow starts at the producer before ending at the consumer.
func TestGridTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end int64 }
	cells := map[string]span{}
	var flowStart, flowEnd []int64
	for _, e := range trace.TraceEvents {
		switch {
		case e.Cat == "cell" && e.Ph == "X":
			cells[e.Name] = span{e.Ts, e.Ts + e.Dur}
		case e.Cat == "artifact" && e.Ph == "s":
			flowStart = append(flowStart, e.Ts)
		case e.Cat == "artifact" && e.Ph == "f":
			flowEnd = append(flowEnd, e.Ts)
		}
	}
	if len(cells) != 3 {
		t.Fatalf("rendered %d cell slices, want 3", len(cells))
	}
	for _, e := range trace.TraceEvents {
		if e.Cat != "phase" || e.Ph != "X" {
			continue
		}
		inside := false
		for _, c := range cells {
			if e.Ts >= c.start && e.Ts+e.Dur <= c.end {
				inside = true
				break
			}
		}
		if !inside {
			t.Errorf("phase slice %s [%d,%d] lies outside every cell slice", e.Name, e.Ts, e.Ts+e.Dur)
		}
	}
	if len(flowStart) != 1 || len(flowEnd) != 1 {
		t.Fatalf("flow arrows: %d starts, %d ends, want 1 each", len(flowStart), len(flowEnd))
	}
	if flowStart[0] >= flowEnd[0] {
		t.Errorf("flow ends (%d) before it starts (%d)", flowEnd[0], flowStart[0])
	}
}
