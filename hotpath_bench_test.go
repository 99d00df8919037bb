package repro

// Micro-benchmarks and allocation guards for the simulator's hot path:
// the emulator step loop, the warmed fast-forward, the radix-table
// memory, and the L1 fast path.
// The AllocsPerRun tests are regression guards — the step and L1-hit
// paths are allocation-free by construction, and any future allocation
// there costs throughput on every simulated instruction.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// stepProg is a tiny endless kernel exercising the emulator's ALU, load,
// store and branch paths without ever halting.
func stepProg() *isa.Program {
	return &isa.Program{
		Name: "bench-loop",
		Code: []isa.Instr{
			{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 8},
			{Op: isa.OpAndI, Rd: 1, Ra: 1, Imm: 1<<16 - 1},
			{Op: isa.OpLoad, Rd: 2, Ra: 1, Imm: 0, Size: 8},
			{Op: isa.OpAdd, Rd: 3, Ra: 3, Rb: 2},
			{Op: isa.OpStore, Ra: 1, Rb: 3, Imm: 8, Size: 8},
			{Op: isa.OpJmp, Imm: 0},
		},
	}
}

func BenchmarkMemReadWrite(b *testing.B) {
	m := mem.New()
	const span = 1 << 20 // 1 MiB working set across many pages
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		addr := uint64(i*64) % span
		m.Write(addr, uint64(i), 8)
		sink += m.Read(addr, 8)
	}
	_ = sink
}

func BenchmarkEmuStep(b *testing.B) {
	cpu := emu.New(stepProg(), mem.New())
	var rec emu.DynInstr
	cpu.Step(&rec) // touch the image so the timed loop is steady-state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Step(&rec)
	}
}

func BenchmarkHierarchyAccessHit(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultConfig())
	// Warm translation and line state so the timed loop measures the
	// L1-hit fast path only.
	for i := 0; i < 16; i++ {
		h.Access(1, 0x1000, false, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(1, 0x1000, false, int64(i+16))
	}
}

func BenchmarkFastForward(b *testing.B) {
	cpu := emu.New(stepProg(), mem.New())
	cpu.FastForward(1 << 14) // fault in the working set
	b.ReportAllocs()
	b.ResetTimer()
	cpu.FastForward(uint64(b.N))
}

// warmStart is where the warmed fast-forward benchmarks start timing in
// quick-scale BFS_KR (12.1 M instructions): past the first 1 M, so the
// hierarchy, predictor and image pages are in steady state, with room
// for warmBudget more before the program ends.
const warmStart, warmBudget = 1 << 20, 8 << 20

// warmedMachine builds an SVR16 machine, the paper's subject, on a
// quick-scale BFS_KR image and warms it up to warmStart.
func warmedMachine(tb testing.TB) sim.Machine {
	tb.Helper()
	spec, err := workloads.Get("BFS_KR")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sim.NewMachine(sim.SVRConfig(16), spec.Build(sim.QuickParams().Scale))
	if err != nil {
		tb.Fatal(err)
	}
	if !m.FastForward(warmStart, true) {
		tb.Fatal("BFS_KR ended inside the warm-up")
	}
	return m
}

// BenchmarkFastForwardWarm times the warmed fast-forward a paper-scale
// gap runs, through sim.Machine.FastForward: one op is one instruction.
// Every warmBudget instructions the machine goes back to a checkpoint at
// warmStart, untimed, so the program never ends inside the loop.
func BenchmarkFastForwardWarm(b *testing.B) {
	m := warmedMachine(b)
	ck := m.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	var pos uint64
	for left := uint64(b.N); left > 0; {
		if pos == warmBudget {
			b.StopTimer()
			var err error
			if m, err = sim.NewMachineFrom(sim.SVRConfig(16), ck); err != nil {
				b.Fatal(err)
			}
			pos = 0
			b.StartTimer()
		}
		k := min(left, warmBudget-pos)
		if !m.FastForward(k, true) {
			b.Fatal("BFS_KR ended inside the timed fast-forward")
		}
		pos += k
		left -= k
	}
}

// TestFastForwardDoesNotAllocate guards the functional fast-forward loop:
// steady state must be allocation-free, or paper-scale skip distances pay
// GC tax on billions of instructions.
func TestFastForwardDoesNotAllocate(t *testing.T) {
	cpu := emu.New(stepProg(), mem.New())
	cpu.FastForward(1 << 14) // fault every page the kernel addresses
	if allocs := testing.AllocsPerRun(1000, func() { cpu.FastForward(1) }); allocs != 0 {
		t.Fatalf("emu.FastForward allocates %.1f objects per instruction; the fast-forward loop must be allocation-free", allocs)
	}
}

// TestFastForwardWarmDoesNotAllocate guards the warming variant's steady
// state: warm lookups land in already-allocated cache/TLB/predictor
// tables, so no per-instruction allocation is acceptable there either.
// It runs the real warmer, through sim.Machine.FastForward.
func TestFastForwardWarmDoesNotAllocate(t *testing.T) {
	m := warmedMachine(t)
	if allocs := testing.AllocsPerRun(1000, func() { m.FastForward(1, true) }); allocs != 0 {
		t.Fatalf("warmed Machine.FastForward allocates %.1f objects per instruction in steady state", allocs)
	}
}

// TestEmuStepDoesNotAllocate guards the emulator step loop: one executed
// instruction must not allocate.
func TestEmuStepDoesNotAllocate(t *testing.T) {
	cpu := emu.New(stepProg(), mem.New())
	var rec emu.DynInstr
	// Warm: touch every page the kernel will ever address so the timed
	// runs never take the first-touch page allocation.
	for i := 0; i < 1<<14; i++ {
		cpu.Step(&rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() { cpu.Step(&rec) }); allocs != 0 {
		t.Fatalf("emu.Step allocates %.1f objects per instruction; the step loop must be allocation-free", allocs)
	}
}

// TestHierarchyL1HitDoesNotAllocate guards the demand-access L1-hit fast
// path, the single hottest call of the timing model.
func TestHierarchyL1HitDoesNotAllocate(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultConfig())
	at := int64(0)
	for i := 0; i < 64; i++ {
		h.Access(1, 0x1000, false, at)
		at++
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Access(1, 0x1000, false, at)
		at++
	}); allocs != 0 {
		t.Fatalf("L1-hit Access allocates %.1f objects per access; the hit path must be allocation-free", allocs)
	}
}

// TestCoreStepNoSinkDoesNotAllocate guards the full timed step — emulator
// step plus in-order issue through the cache hierarchy — with no trace
// sink attached. Detached observability must cost one nil check, not an
// allocation, per instruction.
func TestCoreStepNoSinkDoesNotAllocate(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultConfig())
	core := inorder.New(inorder.DefaultConfig(), h)
	cpu := emu.New(stepProg(), mem.New())
	if core.Tracer != nil {
		t.Fatal("core starts with a tracer attached")
	}
	// Warm: fault in the kernel's pages and settle the caches so the timed
	// runs measure steady state, not first-touch fills. The instruction
	// record lives outside the closure, as it does across the iterations
	// of the warm loop.
	var rec emu.DynInstr
	for i := 0; i < 1<<15 && cpu.Step(&rec); i++ {
		core.Issue(&rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		cpu.Step(&rec)
		core.Issue(&rec)
	}); allocs != 0 {
		t.Fatalf("core step with no sink allocates %.1f objects per instruction; the detached-tracer path must be allocation-free", allocs)
	}
}

// benchRecording records a window of the bench kernel for the replay
// and batch-decode guards below.
func benchRecording(t *testing.T, n uint64) *stream.Recording {
	t.Helper()
	cpu := emu.New(stepProg(), mem.New())
	rec, err := stream.Record(cpu, n)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestReplayNextDoesNotAllocate guards the stream decoder: replaying one
// recorded instruction must not allocate, or every replayed cell pays GC
// tax the live emulator doesn't.
func TestReplayNextDoesNotAllocate(t *testing.T) {
	rec := benchRecording(t, 1<<15)
	src := stream.NewReplay(rec)
	var r emu.DynInstr
	for i := 0; i < 1<<10; i++ {
		src.Next(&r)
	}
	if allocs := testing.AllocsPerRun(1000, func() { src.Next(&r) }); allocs != 0 {
		t.Fatalf("ReplaySource.Next allocates %.1f objects per instruction; decode must be allocation-free", allocs)
	}
}

// TestReplaySourcePoolDoesNotAllocate guards the pooled decode scratch:
// after a Recycle, opening the next window's source must reuse the
// pooled struct instead of allocating a fresh register-file-sized cursor.
func TestReplaySourcePoolDoesNotAllocate(t *testing.T) {
	rec := benchRecording(t, 1<<10)
	stream.NewReplay(rec).Recycle() // prime the pool
	if allocs := testing.AllocsPerRun(100, func() {
		stream.NewReplay(rec).Recycle()
	}); allocs != 0 {
		t.Fatalf("NewReplay after Recycle allocates %.1f objects per cell; the cursor must come from the pool", allocs)
	}
}

// TestBatchFillDoesNotAllocate guards the SoA batch decoder: once a
// chunk's columns are sized, refilling it from the stream must be
// allocation-free (cohorts recycle chunk buffers across a whole grid).
func TestBatchFillDoesNotAllocate(t *testing.T) {
	rec := benchRecording(t, 1<<15)
	src := stream.NewReplay(rec)
	const rows = 256
	b := new(stream.DecodedBatch)
	b.Fill(src, rows) // first fill sizes the columns
	if allocs := testing.AllocsPerRun(10, func() { b.Fill(src, rows) }); allocs != 0 {
		t.Fatalf("DecodedBatch.Fill allocates %.1f objects per chunk after sizing; refills must reuse the columns", allocs)
	}
}

// TestCohortStepDoesNotAllocate guards the lockstep batch-step path: one
// decoded row issued into a core must not allocate, exactly like the
// live per-instruction path it replaces.
func TestCohortStepDoesNotAllocate(t *testing.T) {
	rec := benchRecording(t, 1<<15)
	src := stream.NewReplay(rec)
	b := new(stream.DecodedBatch)
	n := b.Fill(src, 1<<14)
	h := cache.NewHierarchy(cache.DefaultConfig())
	core := inorder.New(inorder.DefaultConfig(), h)
	core.RunBatch(b, 0, n/2) // warm caches and predictor tables
	i := n / 2
	if allocs := testing.AllocsPerRun(1000, func() {
		core.RunBatch(b, i, i+1)
		i++
		if i == n {
			i = n / 2
		}
	}); allocs != 0 {
		t.Fatalf("cohort batch step allocates %.1f objects per instruction; lockstep stepping must be allocation-free", allocs)
	}
}

// TestArchViewDoesNotAllocate guards the replay-backed architectural
// state view IMP and SVR cells observe through: advancing past one
// decoded record (register write-back, flags, store apply on warm pages)
// and the retire-point reads the engine makes — ReadMem on the private
// image, Reg, CmpFlags — must all be allocation-free.
func TestArchViewDoesNotAllocate(t *testing.T) {
	rec := benchRecording(t, 1<<15)
	viewMem := mem.New()
	// Fault in every page the bench kernel stores to (r1 wraps at 64 KiB)
	// so the timed runs never take a first-touch page allocation.
	for a := uint64(0); a < (1<<16)+128; a += mem.PageSize {
		viewMem.Write(a, 1, 8)
	}
	view := stream.NewArchView(rec, viewMem)
	src := stream.NewReplay(rec)
	var r emu.DynInstr
	for i := 0; i < 1<<10; i++ {
		src.Next(&r)
		view.Advance(&r)
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		src.Next(&r)
		view.Advance(&r)
		sink += view.ReadMem(r.Addr, 8)
		sink += uint64(view.Reg(1))
		sink += uint64(view.CmpFlags())
	}); allocs != 0 {
		t.Fatalf("ArchView step allocates %.1f objects per instruction; the view path must be allocation-free", allocs)
	}
	_ = sink
}

// TestMemReadWriteDoesNotAllocate guards the radix-table memory: accesses
// to already-touched pages must not allocate.
func TestMemReadWriteDoesNotAllocate(t *testing.T) {
	m := mem.New()
	const span = 1 << 20
	for a := uint64(0); a < span; a += mem.PageSize {
		m.Write(a, 1, 8) // fault every page in
	}
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		addr := (i * 64) % span
		m.Write(addr, i, 8)
		_ = m.Read(addr, 8)
		i++
	}); allocs != 0 {
		t.Fatalf("mem.Read/Write allocates %.1f objects per access on warm pages", allocs)
	}
}
