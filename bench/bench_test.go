package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestMain lets the test binary stand in for the benchmark binary: a run
// re-executes its own executable as child processes, which under go test
// is this binary, so child invocations go to the benchmark's entry point.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := cmdRun(os.Stdout, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny scale through the real paths:
// child processes, the timed region, the cross-check and, traced, the
// per-layer report with its probes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, name := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			f := runFlags{workload: name, seed: 7, seconds: 0.05, trace: trace, tiny: true}
			line, err := runWorkload(f)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v",
					name, trace, line.Correct, line.Attempted, line.Failed, line.failures)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.name]
				if !ok || math.IsNaN(v.Value) || v.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v", name, trace, d.name, v)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v.Value)
				}
			}
			if trace == 1 && line.Metrics["phase.coverage"].Value < 0.95 {
				t.Errorf("%s: phase.coverage = %g, want >= 0.95", name, line.Metrics["phase.coverage"].Value)
			}
		}
	}
}

// TestVerifyCountsFailures corrupts a golden reference, a returned cell
// and a later round's copy of a cell, and checks that each shows up as
// one failed operation.
func TestVerifyCountsFailures(t *testing.T) {
	b := &bench{wl: &workload{name: "test", checks: 1}, seed: 1}
	b.records = []jobRecord{{key: "job", out: jobOut{outputs: []output{{"job", "d1"}}}}}
	if attempted, failed, _ := b.verify(map[string]string{"job": "d1"}); attempted != 1 || failed != 0 {
		t.Errorf("matching golden: attempted %d, failed %d; want 1, 0", attempted, failed)
	}
	if _, failed, msgs := b.verify(map[string]string{"job": "corrupted"}); failed != 1 {
		t.Errorf("corrupted golden: failed %d, want 1 (%v)", failed, msgs)
	}

	spec, err := workloads.Get("NAS-IS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MachineConfig(sim.InO)
	p := (&bench{seed: 1, tiny: true}).sized(sim.QuickParams())
	res := sim.Run(spec, cfg, p)
	corrupted := res
	corrupted.Cycles++
	// cells makes the run's cells settled records of the given Results,
	// one per round.
	cells := func(rs ...sim.Result) {
		b.cells, b.settled = nil, 0
		for i := range rs {
			b.cells = append(b.cells, cellRecord{round: i, cfg: cfg, spec: spec, p: p, res: &rs[i]})
		}
		if err := b.settle(); err != nil {
			t.Fatal(err)
		}
	}
	b.records = nil
	cells(res, res)
	if attempted, failed, msgs := b.verify(nil); attempted != 2 || failed != 0 {
		t.Errorf("intact cells: attempted %d, failed %d (%v); want 2, 0", attempted, failed, msgs)
	}
	cells(corrupted)
	if _, failed, msgs := b.verify(nil); failed != 1 {
		t.Errorf("corrupted cell: failed %d, want 1 (%v)", failed, msgs)
	}
	cells(res, corrupted)
	if _, failed, msgs := b.verify(nil); failed != 1 {
		t.Errorf("corrupted later round: failed %d, want 1 (%v)", failed, msgs)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which tells a
// benchmark runner how to invoke this program and what it reports, in
// step with the metrics and workloads the code defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
