package sim

import (
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/workloads"
)

// The live reference: a machine's core driven straight from its own
// emulator, each instruction executed the moment before it issues — the
// lockstep arrangement the recorded walk replaced. It exists only here,
// as the oracle the fidelity tests hold every execution path to.

// liveStep issues the next n instructions, executed live by m's
// emulator, returning false if the program ended first.
func liveStep(m Machine, n uint64) bool {
	var core interface{ Issue(*emu.DynInstr) }
	switch mm := m.(type) {
	case *inOrderMachine:
		if mm.eng != nil {
			mm.eng.Arch = mm.cpu
		}
		core = mm.core
	case *oooMachine:
		core = mm.core
	default:
		panic(fmt.Sprintf("liveStep: unknown machine %T", m))
	}
	cpu := m.base().cpu
	var rec emu.DynInstr
	for i := uint64(0); i < n; i++ {
		if !cpu.Step(&rec) {
			return false
		}
		core.Issue(&rec)
	}
	return true
}

// liveSimulate is Simulate executed live: the same region schedule,
// warmup → reset → measure sequence and interval sampling. atFirst marks
// a machine restored at its first region start (SimulateFrom).
func liveSimulate(m Machine, p Params, atFirst bool) Result {
	if p.FastForward == 0 && p.Regions <= 1 {
		return liveWindow(m, p)
	}
	var per []Result
	for r := 0; r < max(p.Regions, 1); r++ {
		ffOK := true
		if p.FastForward > 0 && !(r == 0 && atFirst) {
			ffOK = m.FastForward(p.FastForward, p.Warm)
		}
		res := liveWindow(m, p)
		if res.Instrs == 0 && len(per) > 0 {
			break // program ended inside the previous window
		}
		per = append(per, res)
		if !ffOK || res.Instrs < p.Measure {
			break
		}
	}
	return mergeRegions(per, p)
}

// liveWindow runs one warmup+measure window live, sampling the measured
// part every SampleEvery instructions when asked.
func liveWindow(m Machine, p Params) Result {
	liveStep(m, p.Warmup)
	m.ResetStats()
	if p.SampleEvery == 0 {
		liveStep(m, p.Measure)
		return m.Collect()
	}
	s := newSeriesSampler(m, p.SampleEvery)
	for alive := true; alive && m.Instrs() < p.Measure; {
		alive = liveStep(m, min(p.SampleEvery, p.Measure-m.Instrs()))
		s.tick()
	}
	res := m.Collect()
	res.Series = s.ts
	return res
}

// testMachine builds cfg over a private clone of spec's image.
func testMachine(t *testing.T, cfg Config, spec workloads.Spec, sc workloads.Scale) Machine {
	t.Helper()
	m, err := NewMachine(cfg, cloneInstance(cachedBuild(spec, sc, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// liveCell runs one cell live from the start point the grid uses: the
// shared checkpoint when fast-forwarding, else a clone of the image.
func liveCell(t *testing.T, spec workloads.Spec, cfg Config, p Params) Result {
	t.Helper()
	if p.FastForward == 0 {
		return liveSimulate(testMachine(t, cfg, spec, p.Scale), p, false)
	}
	ck, _ := cachedCheckpoint(spec, cfg, p, nil, nil)
	m, err := NewMachineFrom(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	return liveSimulate(m, p, true)
}
