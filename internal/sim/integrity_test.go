package sim

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestTimingModelsPreserveArchitecture runs every evaluation workload to
// completion at tiny scale under each timing model and validates the
// architectural result with the workload's functional self-check, on
// the memory image the machine carried through its recorded windows:
// the image IMP and SVR machines' ArchViews advanced row by row while
// their companions read it, and the one in-order and out-of-order
// machines applied each window's stores to. SVR's transient execution
// in particular must never leak into that image (stores must not be
// performed, register values must be exact).
func TestTimingModelsPreserveArchitecture(t *testing.T) {
	p := Params{Scale: workloads.TinyScale(), Warmup: 0, Measure: 1 << 26}
	cfgs := []Config{
		MachineConfig(InO),
		MachineConfig(IMP),
		MachineConfig(OoO),
		SVRConfig(16),
		SVRConfig(64),
	}
	for _, spec := range workloads.Evaluation() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, cfg := range cfgs {
				inst := spec.Build(p.Scale)
				m, err := NewMachine(cfg, inst)
				if err != nil {
					t.Fatal(err)
				}
				res := Simulate(m, p)
				if res.Instrs == 0 {
					t.Fatalf("%s: nothing executed", cfg.Label)
				}
				if inst.Check == nil {
					t.Skip("no self-check")
				}
				if err := inst.Check(inst.Mem); err != nil {
					t.Fatalf("%s corrupted architectural state: %v", cfg.Label, err)
				}
			}
		})
	}
}

// TestTimingDeterminism: same workload, same config, same scale => the
// exact same cycle count. The simulator must be reproducible.
func TestTimingDeterminism(t *testing.T) {
	p := QuickParams()
	for _, name := range []string{"PR_KR", "HJ8", "Randacc"} {
		a, err := RunByName(name, SVRConfig(16), p)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := RunByName(name, SVRConfig(16), p)
		if a.Cycles != b.Cycles || a.Instrs != b.Instrs ||
			a.DRAMLoads != b.DRAMLoads {
			t.Errorf("%s: nondeterministic simulation: %+v vs %+v", name, a.Cycles, b.Cycles)
		}
	}
}

// TestSchedulerCellDeterminism runs the same scheduler cell twice with
// the run cache disabled and requires the two Results — every counter,
// every CPI-stack component, and the full metrics snapshot — to be deeply
// equal. This is the strong form of TestTimingDeterminism: it would catch
// nondeterminism that happens to leave the headline cycle count intact
// (map iteration order leaking into a counter, a fast path updating
// different state than the slow path it shadows, pool reuse carrying
// stale state between cells).
func TestSchedulerCellDeterminism(t *testing.T) {
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	spec, err := workloads.Get("Randacc")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		rs := runMatrix([]Config{SVRConfig(16)}, []workloads.Spec{spec}, QuickParams())
		res, ok := rs.Get("SVR16", "Randacc")
		if !ok {
			t.Fatal("cell missing from result set")
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("scheduler cell is not reproducible:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.Metrics.IsZero() {
		t.Error("cell result carries no metrics snapshot; determinism check is vacuous")
	}
}

// TestInstructionCountInvariance: the dynamic instruction stream is a
// function of the program alone — every timing model must see the same
// committed instruction count over a full run.
func TestInstructionCountInvariance(t *testing.T) {
	p := Params{Scale: workloads.TinyScale(), Warmup: 0, Measure: 1 << 26}
	spec, _ := workloads.Get("PR_KR")
	var counts []uint64
	for _, cfg := range []Config{MachineConfig(InO), MachineConfig(OoO), SVRConfig(16)} {
		res := Run(spec, cfg, p)
		counts = append(counts, res.Instrs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("instruction counts diverge across timing models: %v", counts)
	}
}
