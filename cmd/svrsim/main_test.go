package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func runCmd(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := dispatch(&b, cmd, args); err != nil {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return b.String()
}

func TestList(t *testing.T) {
	out := runCmd(t, "list")
	for _, want := range []string{"fig1", "fig17", "ablations", "multicore",
		"PR_KR", "Randacc", "bwaves"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	out := runCmd(t, "run", "table2")
	if !strings.Contains(out, "2.17") || !strings.Contains(out, "SVR-128") {
		t.Errorf("table2 output:\n%s", out)
	}
}

func TestRunTable1(t *testing.T) {
	out := runCmd(t, "run", "table1")
	if !strings.Contains(out, "Stalls the main thread") {
		t.Errorf("table1 output:\n%s", out)
	}
}

func TestRunCSVMode(t *testing.T) {
	out := runCmd(t, "run", "table2", "-csv")
	csvMode = false // reset the global for other tests
	if !strings.Contains(out, "config,bits,KiB") {
		t.Errorf("csv output:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "run", []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunMissingArg(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "run", nil); err == nil {
		t.Fatal("expected error for missing experiment id")
	}
}

func TestDisasm(t *testing.T) {
	out := runCmd(t, "disasm", "NAS-IS")
	if !strings.Contains(out, "ld32") || !strings.Contains(out, "loop:") {
		t.Errorf("disasm output:\n%s", out)
	}
}

// TestWorkloadCommand: cell's default summary of one workload on SVR.
func TestWorkloadCommand(t *testing.T) {
	out := runCmd(t, "cell", "NAS-IS", "-config", "svr16", "-quick", "-measure", "50000")
	for _, want := range []string{"CPI", "SVR", "prefetch", "rounds="} {
		if !strings.Contains(out, want) {
			t.Errorf("workload output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadBadCore(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "cell", []string{"NAS-IS", "-config", "zzz"}); err == nil {
		t.Fatal("expected error for unknown core")
	}
}

// TestTraceCommand: timeline's text format dumps the ring of events.
func TestTraceCommand(t *testing.T) {
	out := runCmd(t, "timeline", "NAS-IS", "-format", "text", "-o", "-", "-events", "16", "-skip", "20000", "-window", "200")
	if !strings.Contains(out, "window summary") || !strings.Contains(out, "issue") {
		t.Errorf("trace output:\n%s", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "frobnicate", nil); err != errUnknownCommand {
		t.Fatalf("err = %v, want errUnknownCommand", err)
	}
}

// TestBadInputIsAnError: each invalid flag value or unwritable output
// path is refused with an error before any cell runs, instead of a
// panic, a simulation of a machine or window no served job could
// submit, or a whole run whose output is then lost.
func TestBadInputIsAnError(t *testing.T) {
	var started atomic.Int64
	defer sim.Subscribe(func(ev sim.Event) {
		if ev.Kind == sim.EvCellStart {
			started.Add(1)
		}
	})()
	dir := t.TempDir()
	unwritable := filepath.Join(dir, "missing", "out")
	for _, args := range [][]string{
		{"run", "fig1", "-quick", "-workloads", "NOPE"},
		{"all", "-quick", "-workloads", "BFS_KR,NOPE"},
		{"run", "fig3", "-quick", "-workloads", "NAS-IS", "-timeseries", filepath.Join(dir, "ts.csv"), "-sample", "1"},
		{"run", "table2", "-journal", unwritable},
		{"run", "fig3", "-quick", "-workloads", "NAS-IS", "-gridtrace", unwritable},
		{"run", "fig3", "-quick", "-workloads", "NAS-IS", "-timeseries", unwritable},
		{"cell", "NOPE"},
		{"cell", "NAS-IS", "-config", "svr-3"},
		{"cell", "NAS-IS", "-config", "svr0"},
		{"cell", "NAS-IS", "-config", "svr100000"},
		{"cell", "NAS-IS", "-quick", "-config", "svr16,imp", "-format", "prom"},
		{"cell", "NAS-IS", "-quick", "-format", "table"},
		{"cell", "NAS-IS", "-quick", "-config", "svr16,SVR16"},
		{"cell", "NAS-IS", "-quick", "-measure", "2000000000"},
		{"timeline", "NAS-IS", "-format", "text", "-o", "-", "-events", "0"},
		{"timeline", "NAS-IS", "-format", "text", "-o", "-", "-events", "-1"},
		{"timeline", "NAS-IS", "-format", "text", "-o", "-", "-n", "0"},
		{"timeline", "NAS-IS", "-n", "-1", "-o", "-"},
	} {
		var b strings.Builder
		if err := dispatch(&b, args[0], args[1:]); err == nil {
			t.Errorf("%v: no error\n%.300s", args, b.String())
		}
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d cells started before their command was refused", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "ts.csv")); !os.IsNotExist(err) {
		t.Errorf("a refused -timeseries run left its CSV behind (stat: %v)", err)
	}
	// The commands cell and timeline -format text replaced.
	for _, cmd := range []string{"bench", "workload", "metrics", "compare", "trace"} {
		var b strings.Builder
		if err := dispatch(&b, cmd, []string{"NAS-IS"}); err != errUnknownCommand {
			t.Errorf("%s: err = %v, want errUnknownCommand", cmd, err)
		}
	}
}

func TestRunExperimentQuickSubset(t *testing.T) {
	out := runCmd(t, "run", "fig3", "-quick", "-workloads", "NAS-IS,PR_KR")
	if !strings.Contains(out, "mem-dram CPI") {
		t.Errorf("fig3 output:\n%s", out)
	}
}

func TestRunJSONMode(t *testing.T) {
	out := runCmd(t, "run", "table2", "-json")
	jsonMode = false // reset the global for other tests
	var rep struct {
		ID     string
		Values map[string]float64
		Sched  struct{ Cells, Cached int }
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.ID != "table2" || rep.Values["kib.16"] == 0 {
		t.Errorf("report JSON fields missing:\n%s", out)
	}
}

func TestRunColdMode(t *testing.T) {
	out := runCmd(t, "run", "fig3", "-quick", "-cold", "-workloads", "NAS-IS")
	coldMode = false // reset the global for other tests
	if !strings.Contains(out, "mem-dram CPI") {
		t.Errorf("fig3 -cold output:\n%s", out)
	}
}

// TestWorkloadJSON: cell -format json prints the whole Result.
func TestWorkloadJSON(t *testing.T) {
	out := runCmd(t, "cell", "NAS-IS", "-quick", "-format", "json", "-measure", "50000")
	var res map[string]any
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if res["Workload"] != "NAS-IS" || res["CPI"] == nil {
		t.Errorf("JSON fields missing: %v", res)
	}
}

// TestMetricsCommandJSONRoundTrip is the acceptance check for the
// machine-readable export path: `svrsim cell -format json`, run through
// the scheduler, must print for each config exactly the indented JSON of
// the Result an in-process sim.RunByName reports (deterministic timing
// means every counter matches bit for bit), with per-origin DRAM load
// counters equal to Result.DRAMLoads and, on every machine but IMP,
// non-zero cache miss counters and a DRAM-class demand-load latency
// histogram, for one GAP and one HPC-DB workload.
func TestMetricsCommandJSONRoundTrip(t *testing.T) {
	p := sim.QuickParams()
	p.Measure = 100_000
	configs := []string{"inorder", "imp", "ooo", "svr16"}
	for _, wl := range []string{"BFS_KR", "NAS-IS"} {
		out := runCmd(t, "cell", wl, "-quick", "-measure", "100000",
			"-config", strings.Join(configs, ","), "-format", "json")
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		dec := json.NewDecoder(strings.NewReader(out))
		for _, name := range configs {
			cfg, err := grid.ParseConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunByName(wl, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			var got sim.Result
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: invalid JSON for %s: %v\n%.400s", wl, name, err, out)
			}
			if got.Workload != wl || got.Label != cfg.Label {
				t.Fatalf("%s/%s: object is %s on %s", wl, name, got.Workload, got.Label)
			}
			for o := cache.Origin(0); o < cache.NumOrigins; o++ {
				c := "dram.loads." + o.String()
				if g, w := got.Metrics.Counters[c], got.DRAMLoads[o]; g != w {
					t.Errorf("%s/%s: %s = %d, Result.DRAMLoads = %d", wl, name, c, g, w)
				}
			}
			if cfg.Core == sim.IMP {
				continue // IMP can cover every demand miss of a short window
			}
			for _, c := range []string{"l1d.accesses", "l1d.misses", "l2.accesses", "l2.misses"} {
				if got.Metrics.Counters[c] == 0 {
					t.Errorf("%s/%s: counter %s = 0", wl, name, c)
				}
			}
			hist, ok := got.Metrics.Histograms["lat.demand.mem"]
			if !ok || hist.Count == 0 {
				t.Fatalf("%s/%s: lat.demand.mem histogram missing or empty", wl, name)
			}
			if hist.Mean() < 50 {
				t.Errorf("%s/%s: mean DRAM-serviced demand latency = %.1f, want DRAM-class", wl, name, hist.Mean())
			}
		}
		if out != want.String() {
			t.Errorf("%s: cell -format json differs from sim.RunByName's Results as indented JSON", wl)
		}
	}
}

// TestRunJSONOmitsCellMetrics: a report collects every cell's snapshot,
// but `run -json` prints them only under -metrics.
func TestRunJSONOmitsCellMetrics(t *testing.T) {
	out := runCmd(t, "run", "fig3", "-quick", "-json", "-workloads", "NAS-IS")
	jsonMode = false // reset the global for other tests
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if _, ok := rep["CellMetrics"]; ok {
		t.Error("-json without -metrics printed CellMetrics")
	}
	if _, ok := rep["Sched"]; !ok {
		t.Error("-json report has no Sched")
	}
}

// TestRunMetricsFlag checks the experiment path: `run -metrics` emits the
// report as JSON with one registry snapshot per scheduler cell.
func TestRunMetricsFlag(t *testing.T) {
	out := runCmd(t, "run", "fig3", "-quick", "-metrics", "-workloads", "NAS-IS")
	jsonMode, metricsMode = false, false // reset globals for other tests
	var rep struct {
		ID          string
		CellMetrics []struct {
			Label    string
			Workload string
			Metrics  metrics.Snapshot
		}
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.ID != "fig3" || len(rep.CellMetrics) == 0 {
		t.Fatalf("report has no cell metrics:\n%.400s", out)
	}
	for _, c := range rep.CellMetrics {
		if c.Metrics.Counters["l1d.misses"] == 0 {
			t.Errorf("cell %s/%s: l1d.misses = 0", c.Label, c.Workload)
		}
		if c.Metrics.Histograms["lat.demand.mem"].Count == 0 {
			t.Errorf("cell %s/%s: empty lat.demand.mem histogram", c.Label, c.Workload)
		}
	}
}
