package inorder

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

func newCore() *Core {
	cfg := cache.DefaultConfig()
	cfg.StrideDegree = 0
	return New(DefaultConfig(), cache.NewHierarchy(cfg))
}

// runLive issues up to n instructions through core, each executed by
// cpu in lockstep just before it issues.
func runLive(core *Core, cpu *emu.CPU, n uint64) {
	var rec emu.DynInstr
	for i := uint64(0); i < n && cpu.Step(&rec); i++ {
		core.Issue(&rec)
	}
}

func run(t *testing.T, p *isa.Program, m *mem.Memory, core *Core) *emu.CPU {
	t.Helper()
	cpu := emu.New(p, m)
	runLive(core, cpu, 1<<22)
	if !cpu.Halted() {
		t.Fatal("program did not halt")
	}
	return cpu
}

func TestALUThroughput(t *testing.T) {
	b := isa.NewBuilder("alu")
	// 3000 independent single-cycle ALU ops should issue 3 per cycle.
	for i := 0; i < 3000; i++ {
		b.AddI(isa.Reg(1+i%8), isa.R0, int64(i))
	}
	b.Halt()
	core := newCore()
	run(t, b.Build(), mem.New(), core)
	if ipc := core.IPC(); ipc < 2.2 { // cold I-TLB/I-cache front-end effects included
		t.Errorf("independent ALU IPC = %.2f, want ~3", ipc)
	}
}

func TestDependentALUSerializes(t *testing.T) {
	b := isa.NewBuilder("dep")
	for i := 0; i < 3000; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	core := newCore()
	run(t, b.Build(), mem.New(), core)
	if ipc := core.IPC(); ipc > 1.1 {
		t.Errorf("dependent-chain IPC = %.2f, want ~1", ipc)
	}
}

func TestStallOnUseNotOnMiss(t *testing.T) {
	// A missing load followed by many independent ALU ops: the ALU work
	// should proceed; a dependent use at the end pays the miss.
	m := mem.New()
	a := m.NewArray(64, 8)

	build := func(useEarly bool) *isa.Program {
		b := isa.NewBuilder("sou")
		b.LoadImm(1, int64(a.Base))
		b.Load(2, 1, 0, 8) // cold miss
		if useEarly {
			b.Add(3, 2, 2) // immediate use: stalls
		}
		for i := 0; i < 200; i++ {
			b.AddI(4, isa.R0, int64(i)) // independent work
		}
		b.Add(3, 2, 2) // eventual use
		b.Halt()
		return b.Build()
	}

	early := newCore()
	run(t, build(true), m, early)
	late := newCore()
	run(t, build(false), mem.New(), late) // fresh memory: still cold miss

	if late.Cycles() >= early.Cycles() {
		t.Errorf("hiding the miss under independent work didn't help: late=%d early=%d",
			late.Cycles(), early.Cycles())
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Two independent cold-missing loads vs two dependent (chained)
	// loads: the independent pair should be much faster.
	m := mem.New()
	a := m.NewArray(1<<16, 8)
	// a[0] holds the address of a far element for the chase.
	far := a.Addr(1 << 12)
	a.SetI(0, int64(far))

	indep := isa.NewBuilder("indep")
	indep.LoadImm(1, int64(a.Addr(0)))
	indep.LoadImm(2, int64(a.Addr(1<<10)))
	indep.Load(3, 1, 0, 8)
	indep.Load(4, 2, 0, 8)
	indep.Add(5, 3, 4)
	indep.Halt()

	chain := isa.NewBuilder("chain")
	chain.LoadImm(1, int64(a.Addr(0)))
	chain.Load(2, 1, 0, 8) // loads &a[4096]
	chain.Load(3, 2, 0, 8) // dependent chase
	chain.Add(5, 3, 3)
	chain.Halt()

	ci := newCore()
	run(t, indep.Build(), m, ci)
	cc := newCore()
	run(t, chain.Build(), m, cc)

	// Both runs pay the same constant cold front-end cost (~140 cycles
	// of I-TLB walk + first I-line fill), which compresses the ratio of
	// these tiny programs below the ideal 2x.
	if float64(cc.Cycles()) < 1.3*float64(ci.Cycles()) {
		t.Errorf("chained loads (%d cyc) should be well above independent (%d cyc)",
			cc.Cycles(), ci.Cycles())
	}
}

func TestPointerChaseCPIHigh(t *testing.T) {
	// A pointer chase over a ring far larger than L2 should approach
	// DRAM latency per load -> CPI in the tens.
	m := mem.New()
	const n = 1 << 17 // 128K nodes * 64B stride = 8 MiB footprint
	nodes := m.NewArray(n*8, 8)
	step := uint64(8) // 64-byte spacing in elements
	for i := uint64(0); i < n; i++ {
		cur := (i * step * 2459) % (n * 8) // scatter
		next := ((i + 1) * step * 2459) % (n * 8)
		nodes.SetI(cur, int64(nodes.Addr(next)))
	}
	b := isa.NewBuilder("chase")
	b.LoadImm(1, int64(nodes.Addr(0)))
	b.Label("loop")
	b.Load(1, 1, 0, 8)
	b.CmpI(1, 0)
	b.BNE("loop")
	b.Halt()

	core := newCore()
	cpu := emu.New(b.Build(), m)
	runLive(core, cpu, 60000)
	if cpi := core.CPI(); cpi < 20 {
		t.Errorf("pointer-chase CPI = %.1f, want > 20 (DRAM-bound)", cpi)
	}
	stack := core.NormalizedStack()
	if frac := stack.Component(stats.StallMemDRAM) / stack.CPI(); frac < 0.7 {
		t.Errorf("DRAM share of CPI = %.2f, want > 0.7", frac)
	}
}

func TestBranchMispredictBubbles(t *testing.T) {
	// A data-dependent unpredictable branch pattern vs an always-taken
	// loop: the unpredictable one should be slower per instruction.
	m := mem.New()
	a := m.NewArray(1<<14, 8)
	x := uint64(12345)
	for i := uint64(0); i < a.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a.Set(i, (x>>33)&1)
	}
	b := isa.NewBuilder("br")
	rB, rI, rN, rA, rV := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
	b.LoadImm(rB, int64(a.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(a.N))
	b.Label("loop")
	b.ShlI(rA, rI, 3)
	b.Add(rA, rA, rB)
	b.Load(rV, rA, 0, 8)
	b.CmpI(rV, 0)
	b.BEQ("skip")
	b.AddI(6, 6, 1)
	b.Label("skip")
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()

	core := New(DefaultConfig(), cache.NewHierarchy(cache.DefaultConfig()))
	run(t, b.Build(), m, core)
	if rate := core.BP.MispredictRate(); rate < 0.1 {
		t.Errorf("random branch mispredict rate = %.2f, want substantial", rate)
	}
	if core.Branches == 0 {
		t.Fatal("no branches counted")
	}
	if frac := core.NormalizedStack().Component(stats.StallBranch); frac <= 0 {
		t.Error("no branch-stall cycles attributed")
	}
}

func TestScoreboardLimitsInflight(t *testing.T) {
	// Independent missing loads beyond the scoreboard depth cannot all
	// overlap: with scoreboard 4 vs 32 the same workload takes longer.
	build := func() (*isa.Program, *mem.Memory) {
		m := mem.New()
		a := m.NewArray(1<<16, 8)
		b := isa.NewBuilder("sb")
		b.LoadImm(1, int64(a.Base))
		for i := 0; i < 64; i++ {
			b.Load(isa.Reg(2+i%16), 1, int64(i)*4096, 8)
		}
		b.Halt()
		return b.Build(), m
	}

	small := DefaultConfig()
	small.Scoreboard = 4
	hcfg := cache.DefaultConfig()
	hcfg.StrideDegree = 0

	p1, m1 := build()
	c1 := New(small, cache.NewHierarchy(hcfg))
	run(t, p1, m1, c1)

	p2, m2 := build()
	c2 := New(DefaultConfig(), cache.NewHierarchy(hcfg))
	run(t, p2, m2, c2)

	if float64(c1.Cycles()) < 1.5*float64(c2.Cycles()) {
		t.Errorf("scoreboard 4 (%d cyc) should be much slower than 32 (%d cyc)",
			c1.Cycles(), c2.Cycles())
	}
}

func TestCPIStackSumsToCPI(t *testing.T) {
	m := mem.New()
	a := m.NewArray(1<<12, 8)
	b := isa.NewBuilder("mix")
	b.LoadImm(1, int64(a.Base))
	b.LoadImm(2, 0)
	b.Label("loop")
	b.Load(3, 1, 0, 8)
	b.Add(4, 3, 2)
	b.AddI(1, 1, 64)
	b.AddI(2, 2, 1)
	b.CmpI(2, 1000)
	b.BLT("loop")
	b.Halt()
	core := newCore()
	run(t, b.Build(), m, core)
	s := core.NormalizedStack()
	if diff := s.CPI() - core.CPI(); diff > 0.01 || diff < -0.01 {
		t.Errorf("normalized stack CPI %.3f != measured %.3f", s.CPI(), core.CPI())
	}
}

func TestResetStatsWindows(t *testing.T) {
	b := isa.NewBuilder("w")
	for i := 0; i < 100; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	core := newCore()
	cpu := emu.New(b.Build(), mem.New())
	runLive(core, cpu, 50)
	core.H.Reg.Reset()
	if core.Instrs != 0 || core.Cycles() != 0 {
		t.Fatalf("stats not reset: %d instrs %d cycles", core.Instrs, core.Cycles())
	}
	runLive(core, cpu, 20)
	if core.Instrs != 20 {
		t.Errorf("windowed instrs = %d", core.Instrs)
	}
	if core.Cycles() <= 0 {
		t.Error("no cycles measured in window")
	}
}

// companionCounter counts OnIssue callbacks and consumes one slot each.
type companionCounter struct{ calls int }

func (c *companionCounter) OnIssue(rec *emu.DynInstr, issueAt int64, level cache.Level) int64 {
	c.calls++
	return 1
}

func TestCompanionHook(t *testing.T) {
	b := isa.NewBuilder("comp")
	for i := 0; i < 30; i++ {
		b.AddI(1, 1, 1)
	}
	b.Halt()
	core := newCore()
	comp := &companionCounter{}
	core.Companion = comp
	run(t, b.Build(), mem.New(), core)
	if comp.calls != 31 {
		t.Errorf("companion saw %d issues, want 31", comp.calls)
	}
	if core.ExtraSlots != 31 {
		t.Errorf("extra slots = %d", core.ExtraSlots)
	}
	// Consuming one slot per instruction at width 3 roughly halves IPC
	// of a dependent chain... it must at least slow the core down.
	plain := newCore()
	b2 := isa.NewBuilder("plain")
	for i := 0; i < 30; i++ {
		b2.AddI(1, 1, 1)
	}
	b2.Halt()
	run(t, b2.Build(), mem.New(), plain)
	if core.Cycles() < plain.Cycles() {
		t.Errorf("companion slots did not cost cycles: %d < %d", core.Cycles(), plain.Cycles())
	}
}

func TestStoreBufferLimitsStoreBursts(t *testing.T) {
	// A burst of stores to distinct missing lines: a 1-entry store
	// buffer serializes the drains, a deep one absorbs them.
	build := func() (*isa.Program, *mem.Memory) {
		m := mem.New()
		a := m.NewArray(1<<16, 8)
		b := isa.NewBuilder("stb")
		b.LoadImm(1, int64(a.Base))
		b.LoadImm(2, 7)
		for i := 0; i < 64; i++ {
			b.Store(2, 1, int64(i)*4096, 8)
		}
		b.Halt()
		return b.Build(), m
	}
	hcfg := cache.DefaultConfig()
	hcfg.StrideDegree = 0

	tiny := DefaultConfig()
	tiny.StoreBuffer = 1
	p1, m1 := build()
	c1 := New(tiny, cache.NewHierarchy(hcfg))
	run(t, p1, m1, c1)

	p2, m2 := build()
	c2 := New(DefaultConfig(), cache.NewHierarchy(hcfg))
	run(t, p2, m2, c2)

	if float64(c1.Cycles()) < 1.5*float64(c2.Cycles()) {
		t.Errorf("1-entry store buffer (%d cyc) should be much slower than 8-entry (%d cyc)",
			c1.Cycles(), c2.Cycles())
	}
}
