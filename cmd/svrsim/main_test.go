package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
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

func TestWorkloadCommand(t *testing.T) {
	out := runCmd(t, "workload", "NAS-IS", "-core", "svr", "-quick", "-measure", "50000")
	for _, want := range []string{"CPI", "SVR", "prefetch", "rounds="} {
		if !strings.Contains(out, want) {
			t.Errorf("workload output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadBadCore(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "workload", []string{"NAS-IS", "-core", "zzz"}); err == nil {
		t.Fatal("expected error for unknown core")
	}
}

func TestTraceCommand(t *testing.T) {
	out := runCmd(t, "trace", "NAS-IS", "-events", "16", "-skip", "20000", "-window", "200")
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

// TestBadInputIsAnError: each invalid flag value is refused with an
// error before anything runs, instead of a panic or a simulation of a
// machine no served job could submit.
func TestBadInputIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"run", "fig1", "-quick", "-workloads", "NOPE"},
		{"all", "-quick", "-workloads", "BFS_KR,NOPE"},
		{"trace", "NAS-IS", "-events", "0"},
		{"trace", "NAS-IS", "-events", "-1"},
		{"metrics", "NAS-IS", "-n", "-3"},
		{"workload", "NAS-IS", "-n", "0"},
		{"workload", "NAS-IS", "-n", "100000"},
		{"trace", "NAS-IS", "-n", "0"},
		{"timeline", "NAS-IS", "-n", "-1", "-o", "-"},
	} {
		var b strings.Builder
		if err := dispatch(&b, args[0], args[1:]); err == nil {
			t.Errorf("%v: no error\n%.300s", args, b.String())
		}
	}
	var b strings.Builder
	if err := dispatch(&b, "bench", nil); err != errUnknownCommand {
		t.Errorf("bench: err = %v, want errUnknownCommand", err)
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

func TestWorkloadJSON(t *testing.T) {
	out := runCmd(t, "workload", "NAS-IS", "-quick", "-json", "-measure", "50000")
	var res map[string]any
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if res["Workload"] != "NAS-IS" || res["CPI"] == nil {
		t.Errorf("JSON fields missing: %v", res)
	}
}

// TestMetricsCommandJSONRoundTrip is the acceptance check for the
// machine-readable export path: `svrsim metrics -format json` must
// round-trip the cache miss counters, the per-origin DRAM load counters,
// and the demand-load latency histogram exactly as an in-process run
// reports them — for one GAP and one HPC-DB workload.
func TestMetricsCommandJSONRoundTrip(t *testing.T) {
	for _, wl := range []string{"BFS_KR", "NAS-IS"} {
		out := runCmd(t, "metrics", wl, "-quick", "-measure", "100000", "-format", "json")
		var got struct {
			Workload string
			Label    string
			Metrics  metrics.Snapshot
		}
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", wl, err, out)
		}
		if got.Workload != wl {
			t.Fatalf("workload = %q, want %q", got.Workload, wl)
		}
		// Same machine, same window, run in-process: deterministic timing
		// means every counter must match bit-for-bit.
		p := sim.QuickParams()
		p.Measure = 100_000
		res, err := sim.RunByName(wl, sim.SVRConfig(16), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"l1d.accesses", "l1d.misses", "l2.accesses", "l2.misses"} {
			if got.Metrics.Counters[name] == 0 {
				t.Errorf("%s: counter %s = 0", wl, name)
			}
			if g, w := got.Metrics.Counters[name], res.Metrics.Counters[name]; g != w {
				t.Errorf("%s: %s = %d over JSON, %d in-process", wl, name, g, w)
			}
		}
		for o := cache.Origin(0); o < cache.NumOrigins; o++ {
			name := "dram.loads." + o.String()
			if g, w := got.Metrics.Counters[name], res.DRAMLoads[o]; g != w {
				t.Errorf("%s: %s = %d over JSON, Result.DRAMLoads = %d", wl, name, g, w)
			}
		}
		hist, ok := got.Metrics.Histograms["lat.demand.mem"]
		if !ok || hist.Count == 0 {
			t.Fatalf("%s: lat.demand.mem histogram missing or empty", wl)
		}
		want := res.Metrics.Histograms["lat.demand.mem"]
		if hist.Count != want.Count || hist.Sum != want.Sum ||
			!reflect.DeepEqual(hist.Buckets, want.Buckets) {
			t.Errorf("%s: lat.demand.mem mismatch: JSON {n=%d sum=%d}, in-process {n=%d sum=%d}",
				wl, hist.Count, hist.Sum, want.Count, want.Sum)
		}
		if hist.Mean() < 50 {
			t.Errorf("%s: mean DRAM-serviced demand latency = %.1f, want DRAM-class", wl, hist.Mean())
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
