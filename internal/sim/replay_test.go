package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

func replayTestParams() Params {
	return Params{Scale: workloads.TinyScale(), Warmup: 20_000, Measure: 60_000}
}

// replayCase is one window shape the fidelity tests cover.
type replayCase struct {
	name string
	p    Params
}

// replayCases are the window shapes every execution path is held to (on
// CC_ORK, whose ~450 k-instruction tiny run fits several regions): a
// plain window, a sampled one whose last interval is partial, a
// three-region schedule with warmed fast-forward gaps, and a sampled
// schedule that runs on until the program ends.
func replayCases() []replayCase {
	plain := replayTestParams()
	sampled := plain
	sampled.SampleEvery = 7_000
	regions := Params{Scale: workloads.TinyScale(), FastForward: 30_000, Warm: true,
		Regions: 3, Warmup: 5_000, Measure: 20_000}
	toEnd := Params{Scale: workloads.TinyScale(), FastForward: 60_000, Warm: true,
		Regions: 1_000, Warmup: 2_000, Measure: 8_000, SampleEvery: 3_000}
	return []replayCase{{"plain", plain}, {"sampled", sampled}, {"regions", regions}, {"to-end", toEnd}}
}

// TestReplayMatchesLive is the fidelity contract of the one execution
// path: for every core kind — including SVR, whose engine reads
// architectural state through each window's ArchView — Simulate over
// recorded windows must produce a Result deeply equal (TimeSeries and
// RegionSummary included) to the same machine executing live, and leave
// the emulator in the same architectural state. The multi-region cases
// pin each window's end state: every gap fast-forwards from where the
// recording left the machine's emulator and memory image.
func TestReplayMatchesLive(t *testing.T) {
	spec := mustSpec(t, "CC_ORK")
	for _, kind := range []CoreKind{InO, IMP, OoO, SVR} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := MachineConfig(kind)
			for _, c := range replayCases() {
				liveM := testMachine(t, cfg, spec, c.p.Scale)
				live := liveSimulate(liveM, c.p, false)
				m := testMachine(t, cfg, spec, c.p.Scale)
				got := Simulate(m, c.p)
				if !reflect.DeepEqual(live, got) {
					t.Errorf("%s: recorded Result differs from live:\nlive %+v\ngot  %+v", c.name, live, got)
				}
				if a, b := liveM.base().cpu.SaveArch(), m.base().cpu.SaveArch(); a != b {
					t.Errorf("%s: emulator ends at %+v, live at %+v", c.name, b, a)
				}
			}
		})
	}
}

// TestTracedStepMatchesLive: a sink attached with SetTracer on the one
// path sees exactly the events the live reference emits once the core's
// and the SVR engine's Tracer fields are set at the same point. The
// traced window starts at an odd instruction and spans more than one
// Step quantum, so recording and chunk boundaries fall mid-loop.
func TestTracedStepMatchesLive(t *testing.T) {
	spec := mustSpec(t, "CC_ORK")
	sc := workloads.TinyScale()
	const skip, window = 10_001, stepQuantum + 5_000
	for _, kind := range []CoreKind{InO, IMP, OoO, SVR} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := MachineConfig(kind)
			var want, got trace.Capture
			live := testMachine(t, cfg, spec, sc)
			liveStep(live, skip)
			switch mm := live.(type) {
			case *inOrderMachine:
				mm.core.Tracer = &want
				if mm.eng != nil {
					mm.eng.Tracer = &want
				}
			case *oooMachine:
				mm.core.Tracer = &want
			}
			liveStep(live, window)

			m := testMachine(t, cfg, spec, sc)
			m.Step(skip)
			m.SetTracer(&got)
			m.Step(window)
			if !reflect.DeepEqual(want.Events, got.Events) {
				t.Fatalf("Step saw %d events, the live reference %d", len(got.Events), len(want.Events))
			}
			if kind != SVR {
				return
			}
			for _, ev := range got.Events {
				if ev.Kind == trace.KindPRMEnter {
					return
				}
			}
			t.Error("SVR window traced no PRM entry")
		})
	}
}

// TestReplayMatchesLiveCheckpointed covers the grid's composed path: a
// cell restored from the shared, functionally-warmed checkpoint and
// timed as a cohort of one over the shared recordings must equal the
// same machine run live from the checkpoint — for a single window and
// for a two-region schedule whose second region the cell enters by
// restoring the chain's second shared start, while the live machine
// warms the gap in place.
func TestReplayMatchesLiveCheckpointed(t *testing.T) {
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	spec := mustSpec(t, "CC_ORK")
	single := Params{Scale: workloads.TinyScale(), FastForward: 20_000, Warm: true, Measure: 60_000}
	two := single
	two.Regions, two.Warmup, two.Measure = 2, 5_000, 20_000
	for _, kind := range []CoreKind{InO, IMP, OoO, SVR} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := MachineConfig(kind)
			for _, p := range []Params{single, two} {
				live := liveCell(t, spec, cfg, p)
				got, out := executeOne(CellRequest{Cfg: cfg, Spec: spec, P: p}, nil)
				if out.Cached || out.Shared || !out.Replayed {
					t.Fatalf("regions=%d: cell not simulated from a recording: %+v", p.Regions, out)
				}
				if !reflect.DeepEqual(live, got) {
					t.Errorf("regions=%d: cell Result differs from live:\nlive %+v\ngot  %+v", p.Regions, live, got)
				}
			}
		})
	}
}

// TestMatrixReplayMatchesLive runs a small grid cold through the default
// matrix runner, holds every cell to the live reference, and asserts the
// scheduler accounted every cell — every core kind, SVR included —
// as timed from a recording.
func TestMatrixReplayMatchesLive(t *testing.T) {
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	specs := []workloads.Spec{mustSpec(t, "PR_KR"), mustSpec(t, "Randacc")}
	cfgs := []Config{
		MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16),
	}
	p := replayTestParams()

	rs := runMatrix(cfgs, specs, p)
	if want := len(cfgs) * len(specs); rs.Stats.Replayed != want {
		t.Errorf("replayed %d cells, want %d", rs.Stats.Replayed, want)
	}
	for _, c := range rs.Cells() {
		if !c.Replayed {
			t.Errorf("cell %s/%s: Replayed=false, want true", c.Label, c.Workload)
		}
	}
	for _, cfg := range cfgs {
		for _, spec := range specs {
			got, _ := rs.Get(cfg.Label, spec.Name)
			if live := liveCell(t, spec, cfg, p); !reflect.DeepEqual(live, got) {
				t.Errorf("cell %s/%s differs from the live reference", cfg.Label, spec.Name)
			}
		}
	}
}
