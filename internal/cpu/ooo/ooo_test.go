package ooo

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

func hcfg() cache.Config {
	cfg := cache.DefaultConfig()
	cfg.StrideDegree = 0
	return cfg
}

// runLive issues up to n instructions through core (out-of-order or
// in-order), each executed by cpu in lockstep just before it issues.
func runLive(core interface{ Issue(*emu.DynInstr) }, cpu *emu.CPU, n uint64) {
	var rec emu.DynInstr
	for i := uint64(0); i < n && cpu.Step(&rec); i++ {
		core.Issue(&rec)
	}
}

func runP(t *testing.T, p *isa.Program, m *mem.Memory, core *Core) {
	t.Helper()
	cpu := emu.New(p, m)
	runLive(core, cpu, 1<<22)
	if !cpu.Halted() {
		t.Fatal("program did not halt")
	}
}

func TestALUThroughput(t *testing.T) {
	b := isa.NewBuilder("alu")
	for i := 0; i < 3000; i++ {
		b.AddI(isa.Reg(1+i%8), isa.R0, int64(i))
	}
	b.Halt()
	core := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, b.Build(), mem.New(), core)
	if ipc := core.IPC(); ipc < 2.2 { // cold I-TLB/I-cache front-end effects included
		t.Errorf("independent ALU IPC = %.2f, want ~3", ipc)
	}
}

// buildStrideIndirect emits the classic A[B[i]] loop over n iterations.
func buildStrideIndirect(idx, data mem.Array, n int64) *isa.Program {
	b := isa.NewBuilder("si")
	rIdx, rData, rI, rN, rA, rV, rSum := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, n)
	b.Label("loop")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4) // striding load B[i]
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8) // indirect load A[B[i]]
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()
	return b.Build()
}

func setupStrideIndirect() (*mem.Memory, mem.Array, mem.Array) {
	m := mem.New()
	idx := m.NewArray(1<<16, 4)
	data := m.NewArray(1<<20, 8) // 8 MiB, far beyond L2
	x := uint64(99)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx.Set(i, (x>>16)%data.N)
	}
	return m, idx, data
}

func TestOoOBeatsInOrderOnIndirect(t *testing.T) {
	// The paper's Fig 3: on stride->indirect workloads the OoO core's
	// window overlaps misses that the in-order core serializes (~2.5x).
	m, idx, data := setupStrideIndirect()
	p := buildStrideIndirect(idx, data, 1<<14)

	o := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, p, m, o)

	m2, idx2, data2 := setupStrideIndirect()
	_ = idx2
	_ = data2
	i := inorder.New(inorder.DefaultConfig(), cache.NewHierarchy(hcfg()))
	cpu := emu.New(buildStrideIndirect(idx2, data2, 1<<14), m2)
	runLive(i, cpu, 1<<22)

	ratio := i.CPI() / o.CPI()
	if ratio < 1.5 {
		t.Errorf("OoO speedup over in-order = %.2fx (InO CPI %.2f, OoO CPI %.2f), want > 1.5x",
			ratio, i.CPI(), o.CPI())
	}
}

func TestROBWindowLimitsMLP(t *testing.T) {
	// A tiny ROB should hurt the same indirect workload.
	m, idx, data := setupStrideIndirect()
	small := DefaultConfig()
	small.ROB = 4
	cs := New(small, cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx, data, 1<<13), m, cs)

	m2, idx2, data2 := setupStrideIndirect()
	cb := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx2, data2, 1<<13), m2, cb)

	if float64(cs.Cycles()) < 1.3*float64(cb.Cycles()) {
		t.Errorf("ROB 4 (%d cyc) should be much slower than ROB 32 (%d cyc)",
			cs.Cycles(), cb.Cycles())
	}
}

func TestLSQLimitsMemOverlap(t *testing.T) {
	m, idx, data := setupStrideIndirect()
	small := DefaultConfig()
	small.LSQ = 1
	cs := New(small, cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx, data, 1<<13), m, cs)

	m2, idx2, data2 := setupStrideIndirect()
	cb := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx2, data2, 1<<13), m2, cb)

	if cs.Cycles() <= cb.Cycles() {
		t.Errorf("LSQ 1 (%d cyc) should be slower than LSQ 16 (%d cyc)",
			cs.Cycles(), cb.Cycles())
	}
}

func TestStoreToLoadOrdering(t *testing.T) {
	// A load from the address just stored must not complete before the
	// store. Functional correctness comes from the emulator; here we
	// check the timing model orders them.
	m := mem.New()
	a := m.NewArray(8, 8)
	b := isa.NewBuilder("stl")
	b.LoadImm(1, int64(a.Base))
	b.LoadImm(2, 42)
	b.Store(2, 1, 0, 8)
	b.Load(3, 1, 0, 8)
	b.Halt()
	core := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	cpu := emu.New(b.Build(), m)
	runLive(core, cpu, 100)
	if cpu.Reg(3) != 42 {
		t.Fatalf("functional: r3 = %d", cpu.Reg(3))
	}
}

func TestMispredictionFlushCost(t *testing.T) {
	m := mem.New()
	a := m.NewArray(1<<14, 8)
	x := uint64(5)
	for i := uint64(0); i < a.N; i++ {
		x = x*2862933555777941757 + 3037000493
		a.Set(i, (x>>40)&1)
	}
	build := func(pred bool) *isa.Program {
		b := isa.NewBuilder("br")
		b.LoadImm(1, int64(a.Base))
		b.LoadImm(2, 0)
		b.Label("loop")
		b.Load(3, 1, 0, 8)
		if pred {
			b.CmpI(3, 99) // never equal: perfectly predictable
		} else {
			b.CmpI(3, 0) // random data: unpredictable
		}
		b.BEQ("skip")
		b.AddI(4, 4, 1)
		b.Label("skip")
		b.AddI(1, 1, 8)
		b.AddI(2, 2, 1)
		b.CmpI(2, 1<<13)
		b.BLT("loop")
		b.Halt()
		return b.Build()
	}
	cPred := New(DefaultConfig(), cache.NewHierarchy(cache.DefaultConfig()))
	runP(t, build(true), m, cPred)
	cRand := New(DefaultConfig(), cache.NewHierarchy(cache.DefaultConfig()))
	runP(t, build(false), m, cRand)
	if cRand.Cycles() <= cPred.Cycles() {
		t.Errorf("unpredictable branches (%d cyc) not slower than predictable (%d cyc)",
			cRand.Cycles(), cPred.Cycles())
	}
}

func TestCPIStackNormalizes(t *testing.T) {
	m, idx, data := setupStrideIndirect()
	core := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx, data, 1<<12), m, core)
	s := core.NormalizedStack()
	if d := s.CPI() - core.CPI(); d > 0.01 || d < -0.01 {
		t.Errorf("stack %.3f vs CPI %.3f", s.CPI(), core.CPI())
	}
}

func TestResetStats(t *testing.T) {
	b := isa.NewBuilder("w")
	for i := 0; i < 100; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	core := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	cpu := emu.New(b.Build(), mem.New())
	runLive(core, cpu, 50)
	core.H.Reg.Reset()
	if core.Instrs != 0 || core.Cycles() != 0 {
		t.Fatal("stats not cleared")
	}
	runLive(core, cpu, 20)
	if core.Instrs != 20 || core.Cycles() <= 0 {
		t.Errorf("window: %d instrs, %d cycles", core.Instrs, core.Cycles())
	}
}

func TestOoOTracer(t *testing.T) {
	b := isa.NewBuilder("tr")
	for i := 0; i < 10; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	core := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	ring := trace.NewRing(64)
	core.Tracer = ring
	cpu := emu.New(b.Build(), mem.New())
	runLive(core, cpu, 100)
	if ring.Total() != 22 { // 11 instrs x (issue + complete)
		t.Errorf("trace events = %d, want 22", ring.Total())
	}
}

func TestRSLimitsInflightIssueWindow(t *testing.T) {
	// A long dependence chain parks instructions in the reservation
	// station; RS=2 must throttle dispatch hard compared to RS=32.
	m, idx, data := setupStrideIndirect()
	small := DefaultConfig()
	small.RS = 2
	cs := New(small, cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx, data, 1<<13), m, cs)

	m2, idx2, data2 := setupStrideIndirect()
	cb := New(DefaultConfig(), cache.NewHierarchy(hcfg()))
	runP(t, buildStrideIndirect(idx2, data2, 1<<13), m2, cb)

	if float64(cs.Cycles()) < 1.1*float64(cb.Cycles()) {
		t.Errorf("RS 2 (%d cyc) should be slower than RS 32 (%d cyc)",
			cs.Cycles(), cb.Cycles())
	}
}
