package svr

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// buildStrideIndirect emits sum += data[idx[i]] over n iterations —
// the canonical SVR target pattern.
func buildStrideIndirect(idx, data mem.Array, n int64) *isa.Program {
	b := isa.NewBuilder("si")
	rIdx, rData, rI, rN := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
	rA, rV, rSum := isa.Reg(5), isa.Reg(6), isa.Reg(7)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, n)
	b.Label("loop")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4) // striding load
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8) // indirect load
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()
	return b.Build()
}

func setupSI() (*mem.Memory, mem.Array, mem.Array) {
	m := mem.New()
	idx := m.NewArray(1<<16, 4)
	data := m.NewArray(1<<20, 8) // 8 MiB
	x := uint64(99)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx.Set(i, (x>>16)%data.N)
	}
	return m, idx, data
}

// runWith executes a program on the in-order core, optionally with an SVR
// engine, and returns the core (and engine if requested).
func runWith(t *testing.T, p *isa.Program, m *mem.Memory, opt *Options, maxInstr uint64) (*inorder.Core, *Engine) {
	t.Helper()
	hcfg := cache.DefaultConfig()
	h := cache.NewHierarchy(hcfg)
	core := inorder.New(inorder.DefaultConfig(), h)
	cpu := emu.New(p, m)
	var eng *Engine
	if opt != nil {
		eng = New(*opt, h, cpu)
		core.Companion = eng
	}
	var rec emu.DynInstr
	for i := uint64(0); i < maxInstr && cpu.Step(&rec); i++ {
		core.Issue(&rec)
	}
	return core, eng
}

func TestSVRSpeedsUpStrideIndirect(t *testing.T) {
	const iters = 1 << 13
	m1, i1, d1 := setupSI()
	base, _ := runWith(t, buildStrideIndirect(i1, d1, iters), m1, nil, 1<<22)

	m2, i2, d2 := setupSI()
	opt := DefaultOptions()
	fast, eng := runWith(t, buildStrideIndirect(i2, d2, iters), m2, &opt, 1<<22)

	speedup := base.CPI() / fast.CPI()
	if speedup < 2.0 {
		t.Errorf("SVR-16 speedup = %.2fx (base CPI %.2f, SVR CPI %.2f), want > 2x",
			speedup, base.CPI(), fast.CPI())
	}
	if eng.Stats.Rounds == 0 || eng.Stats.Scalars == 0 {
		t.Errorf("engine idle: %+v", eng.Stats)
	}
	if eng.Banned() {
		t.Error("accuracy monitor banned SVR on its ideal workload")
	}
}

func TestSVRAccuracyHighOnRegularLoop(t *testing.T) {
	m, idx, data := setupSI()
	opt := DefaultOptions()
	_, eng := runWith(t, buildStrideIndirect(idx, data, 1<<13), m, &opt, 1<<22)
	st := eng.H.Tracker.Stats[cache.OriginSVR]
	if st.Issued == 0 {
		t.Fatal("no SVR prefetches issued")
	}
	if acc := st.Accuracy(); acc < 0.85 {
		t.Errorf("SVR accuracy = %.2f (used %d, evicted %d), want > 0.85",
			acc, st.Used, st.EvictedUnused)
	}
}

func TestWiderSVRIsFaster(t *testing.T) {
	cpis := map[int]float64{}
	for _, n := range []int{8, 64} {
		m, idx, data := setupSI()
		opt := DefaultOptions()
		opt.VectorLen = n
		core, _ := runWith(t, buildStrideIndirect(idx, data, 1<<13), m, &opt, 1<<22)
		cpis[n] = core.CPI()
	}
	if cpis[64] >= cpis[8] {
		t.Errorf("SVR-64 CPI %.2f not faster than SVR-8 CPI %.2f", cpis[64], cpis[8])
	}
}

func TestWaitingModePreventsRedundantWork(t *testing.T) {
	run := func(waiting bool) Stats {
		m, idx, data := setupSI()
		opt := DefaultOptions()
		opt.WaitingMode = waiting
		_, eng := runWith(t, buildStrideIndirect(idx, data, 1<<12), m, &opt, 1<<21)
		return eng.Stats
	}
	with := run(true)
	without := run(false)
	if without.Scalars < 4*with.Scalars {
		t.Errorf("waiting mode off should explode transient work: with=%d without=%d",
			with.Scalars, without.Scalars)
	}
	if without.Rounds < 4*with.Rounds {
		t.Errorf("waiting mode off should re-enter PRM constantly: with=%d without=%d",
			with.Rounds, without.Rounds)
	}
}

func TestNoStridingNoRounds(t *testing.T) {
	// A pointer chase over a random permutation has no striding loads:
	// SVR must stay idle.
	m := mem.New()
	const n = 1 << 12
	nodes := m.NewArray(n, 8)
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	x := uint64(42)
	for i := n - 1; i > 0; i-- { // Fisher-Yates with an xorshift RNG
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		nodes.SetI(perm[i], int64(nodes.Addr(perm[(i+1)%n])))
	}
	b := isa.NewBuilder("chase")
	b.LoadImm(1, int64(nodes.Addr(0)))
	b.LoadImm(2, 0)
	b.Label("loop")
	b.Load(1, 1, 0, 8)
	b.AddI(2, 2, 1)
	b.CmpI(2, 2000)
	b.BLT("loop")
	b.Halt()
	opt := DefaultOptions()
	_, eng := runWith(t, b.Build(), m, &opt, 1<<20)
	if eng.Stats.Rounds != 0 {
		t.Errorf("pointer chase triggered %d PRM rounds", eng.Stats.Rounds)
	}
}

func TestDivergenceMasking(t *testing.T) {
	// data-dependent branch inside the chain: if (idx[i] & 1) sum += ...
	m := mem.New()
	idx := m.NewArray(1<<14, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(7)
	for i := uint64(0); i < idx.N; i++ {
		x = x*2862933555777941757 + 3037000493
		idx.Set(i, (x>>20)%data.N)
	}
	b := isa.NewBuilder("div")
	rIdx, rData, rI := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	rA, rV, rSum, rBit := isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("loop")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4) // striding
	b.AndI(rBit, rV, 1)  // tainted
	b.CmpI(rBit, 0)      // tainted compare
	b.BEQ("skip")        // divergent branch
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8) // indirect, only on odd values
	b.Add(rSum, rSum, rV)
	b.Label("skip")
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 1<<13)
	b.BLT("loop")
	b.Halt()

	opt := DefaultOptions()
	_, eng := runWith(t, b.Build(), m, &opt, 1<<21)
	if eng.Stats.MaskedLanes == 0 {
		t.Error("divergent branch masked no lanes")
	}
	if eng.Stats.Rounds == 0 {
		t.Error("no PRM rounds on divergent kernel")
	}
}

func TestNestedLoopInnerOwnsRunahead(t *testing.T) {
	// for i { A[i]; for j in 0..32 { B[base_i + j]; Ind[B...] } }
	// The paper's HSLR bias must leave the *inner* striding load owning
	// runahead, so the indirect chain keeps getting prefetched.
	m := mem.New()
	outer := m.NewArray(1<<12, 4)
	inner := m.NewArray(1<<17, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(3)
	for i := uint64(0); i < inner.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		inner.Set(i, (x>>20)%data.N)
	}
	b := isa.NewBuilder("nested")
	rO, rIn, rD := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	rI, rJ, rA, rV, rSum, rJEnd := isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9)
	b.LoadImm(rO, int64(outer.Base))
	b.LoadImm(rIn, int64(inner.Base))
	b.LoadImm(rD, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("outer")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rO)
	b.Load(rV, rA, 0, 4) // outer striding load A
	b.Add(rSum, rSum, rV)
	b.MulI(rJ, rI, 32)
	b.AddI(rJEnd, rJ, 32)
	b.Label("innerL")
	b.ShlI(rA, rJ, 2)
	b.Add(rA, rA, rIn)
	b.Load(rV, rA, 0, 4) // inner striding load B
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8) // indirect
	b.Add(rSum, rSum, rV)
	b.AddI(rJ, rJ, 1)
	b.Cmp(rJ, rJEnd)
	b.BLT("innerL")
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 1<<10)
	b.BLT("outer")
	b.Halt()

	opt := DefaultOptions()
	core, eng := runWith(t, b.Build(), m, &opt, 1<<22)
	if eng.Stats.Rounds == 0 {
		t.Fatal("no PRM rounds")
	}
	// Inner-loop ownership shows as roughly one round per vector-length
	// inner iterations — far more rounds than outer iterations alone.
	if eng.Stats.Rounds < 1500 {
		t.Errorf("rounds = %d; inner loop does not own runahead", eng.Stats.Rounds)
	}
	st := eng.H.Tracker.Stats[cache.OriginSVR]
	if st.Issued == 0 || st.Accuracy() < 0.8 {
		t.Errorf("nested prefetching ineffective: %+v", st)
	}
	if core.CPI() > 6 {
		t.Errorf("nested CPI = %.2f; indirect chain not covered", core.CPI())
	}
}

func TestNestedAbortWhenOuterGrabsHSLRFirst(t *testing.T) {
	// Phase 1 trains a plain striding loop so its load owns the HSLR.
	// Phase 2 is a nested loop whose outer load retargets the HSLR, then
	// the inner load is Seen twice within one PRM round -> nested abort.
	m := mem.New()
	warm := m.NewArray(1<<12, 4)
	outer := m.NewArray(1<<12, 4)
	inner := m.NewArray(1<<17, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(3)
	for i := uint64(0); i < inner.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		inner.Set(i, (x>>20)%data.N)
	}
	_ = warm
	// CSR-like schedule: the first 64 rows are empty, so the outer load
	// runs striding alone and captures the HSLR; once rows grow to 24
	// neighbors, the inner load becomes striding *inside* a PRM round,
	// escapes its chain's waiting range, and is Seen twice -> abort.
	b := isa.NewBuilder("nested2")
	rO, rIn, rD := isa.Reg(2), isa.Reg(3), isa.Reg(10)
	rI, rJ, rA, rV, rSum, rJEnd := isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9)
	b.LoadImm(rO, int64(outer.Base))
	b.LoadImm(rIn, int64(inner.Base))
	b.LoadImm(rD, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("outer")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rO)
	b.Load(rV, rA, 0, 4) // outer striding load
	b.Add(rSum, rSum, rV)
	b.CmpI(rI, 64)
	b.BLT("next") // empty row: skip the inner loop
	b.AddI(rJ, rI, -64)
	b.MulI(rJ, rJ, 24)
	b.AddI(rJEnd, rJ, 24)
	b.Label("innerL")
	b.ShlI(rA, rJ, 2)
	b.Add(rA, rA, rIn)
	b.Load(rV, rA, 0, 4) // inner striding load
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8)
	b.Add(rSum, rSum, rV)
	b.AddI(rJ, rJ, 1)
	b.Cmp(rJ, rJEnd)
	b.BLT("innerL")
	b.Label("next")
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 512)
	b.BLT("outer")
	b.Halt()

	opt := DefaultOptions()
	_, eng := runWith(t, b.Build(), m, &opt, 1<<22)
	// Ownership of runahead must transfer to the inner loop one way or
	// the other: a nested abort inside a round, or a Seen-twice retarget
	// outside one (both are §IV-A6 mechanisms).
	if eng.Stats.NestedAborts+eng.Stats.Retargets == 0 {
		t.Errorf("inner loop never took over the HSLR: %+v", eng.Stats)
	}
}

// driveLoad fabricates a dynamic striding-load record at the given PC and
// address and feeds it to the engine, bypassing the pipeline. This lets
// tests walk the §IV-A6 state machine deterministically.
func driveLoad(eng *Engine, seq *uint64, pc int, addr uint64) {
	rec := &emu.DynInstr{
		Seq: *seq, PC: pc,
		Instr: isa.Instr{Op: isa.OpLoad, Rd: 6, Ra: 5, Size: 4},
		Addr:  addr,
	}
	*seq++
	eng.OnIssue(rec, int64(*seq), cache.LevelL1)
}

func TestNestedAbortStateMachine(t *testing.T) {
	// Drive the exact scenario of Fig 9 (nested loops): PRM for outer
	// load A is active, inner load B starts a chain, and a second
	// out-of-range sighting of B aborts A's round and retargets to B.
	m := mem.New()
	m.Alloc(1<<20, 64)
	h := cache.NewHierarchy(cache.DefaultConfig())
	cpu := emu.New(isa.NewBuilder("x").Build(), m)
	opt := DefaultOptions()
	eng := New(opt, h, cpu)

	var seq uint64
	const pcA, pcB = 10, 20
	// Train A until striding and PRM entry (HSLR = A): confidence is
	// reached on the 4th observation, which opens the round.
	for i := uint64(0); i < 4; i++ {
		driveLoad(eng, &seq, pcA, 0x10000+i*4)
	}
	if !eng.InPRM() {
		t.Fatal("PRM(A) not entered")
	}
	if eng.hslrPC != pcA {
		t.Fatalf("HSLR = %d, want %d", eng.hslrPC, pcA)
	}
	// Train B inside the round; on confidence it starts a sibling chain.
	for j := uint64(0); j < 6; j++ {
		driveLoad(eng, &seq, pcB, 0x40000+j*4)
	}
	if eng.Stats.ChainStarts != 1 {
		t.Fatalf("chain starts = %d, want 1", eng.Stats.ChainStarts)
	}
	if !eng.InPRM() || eng.hslrPC != pcA {
		t.Fatal("round should still belong to A")
	}
	// B jumps to a new row (discontinuity resets its confidence), then
	// strides again: once confident and outside its chain's waiting
	// range, the Seen bit is still set -> nested loop detected -> abort
	// A's round, retarget HSLR to B.
	for j := uint64(0); j < 4; j++ {
		driveLoad(eng, &seq, pcB, 0x60000+j*4)
	}
	if eng.Stats.NestedAborts != 1 {
		t.Fatalf("nested aborts = %d, want 1 (%+v)", eng.Stats.NestedAborts, eng.Stats)
	}
	if eng.hslrPC != pcB {
		t.Errorf("HSLR after abort = %d, want %d", eng.hslrPC, pcB)
	}
	// B's EWMA only saw a 2-iteration run before the discontinuity, so
	// the loop-bound predictor throttles the new round to zero lanes —
	// runahead for B waits until its history justifies fetching.
	if eng.InPRM() {
		if eng.Stats.Rounds != 2 {
			t.Errorf("unexpected round accounting: %+v", eng.Stats)
		}
	} else if eng.Stats.PredZero == 0 {
		t.Errorf("PRM(B) skipped but not via loop-bound throttling: %+v", eng.Stats)
	}
}

func TestIndependentLoopRetargetStateMachine(t *testing.T) {
	// Fig 9 independent loops: loop A finishes (waiting), loop B is seen
	// twice -> retarget and runahead for B.
	m := mem.New()
	m.Alloc(1<<20, 64)
	h := cache.NewHierarchy(cache.DefaultConfig())
	cpu := emu.New(isa.NewBuilder("x").Build(), m)
	opt := DefaultOptions()
	eng := New(opt, h, cpu)

	var seq uint64
	const pcA, pcB = 10, 20
	for i := uint64(0); i < 6; i++ {
		driveLoad(eng, &seq, pcA, 0x10000+i*4)
	}
	// Terminate A's round by revisiting A (enters waiting mode).
	driveLoad(eng, &seq, pcA, 0x10000+6*4)
	if eng.InPRM() {
		t.Fatal("round should have terminated on HSLR revisit")
	}
	// Now an independent loop B runs: first confident sighting sets
	// Seen, second retargets.
	for j := uint64(0); j < 5; j++ {
		driveLoad(eng, &seq, pcB, 0x80000+j*4)
	}
	if eng.Stats.Retargets == 0 {
		t.Fatalf("no retarget to the independent loop: %+v", eng.Stats)
	}
	if eng.hslrPC != pcB {
		t.Errorf("HSLR = %d, want %d", eng.hslrPC, pcB)
	}
}

func TestWaitingModeBlocksReentry(t *testing.T) {
	m := mem.New()
	m.Alloc(1<<20, 64)
	h := cache.NewHierarchy(cache.DefaultConfig())
	cpu := emu.New(isa.NewBuilder("x").Build(), m)
	opt := DefaultOptions()
	eng := New(opt, h, cpu)

	var seq uint64
	const pcA = 10
	for i := uint64(0); i < 6; i++ {
		driveLoad(eng, &seq, pcA, 0x10000+i*4)
	}
	driveLoad(eng, &seq, pcA, 0x10000+6*4) // revisit: terminate + wait
	rounds := eng.Stats.Rounds
	// The round opened at i=3 and prefetched 16 elements ahead (through
	// i=19); every address inside that range must be ignored.
	for i := uint64(7); i < 20; i++ {
		driveLoad(eng, &seq, pcA, 0x10000+i*4)
		if eng.Stats.Rounds != rounds {
			t.Fatalf("re-entered PRM inside waiting range at i=%d", i)
		}
	}
	// First address past Last Prefetch restarts runahead.
	driveLoad(eng, &seq, pcA, 0x10000+20*4)
	if eng.Stats.Rounds != rounds+1 {
		t.Errorf("did not restart past the prefetched range: %+v", eng.Stats)
	}
}

func TestUnrolledChainsBothVectorized(t *testing.T) {
	// Two independent stride->indirect chains in one loop body.
	m := mem.New()
	idxA := m.NewArray(1<<14, 4)
	idxB := m.NewArray(1<<14, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(11)
	for i := uint64(0); i < idxA.N; i++ {
		x = x*6364136223846793005 + 1
		idxA.Set(i, (x>>20)%data.N)
		x = x*6364136223846793005 + 1
		idxB.Set(i, (x>>20)%data.N)
	}
	b := isa.NewBuilder("unrolled")
	rA, rB, rD, rI := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
	rT, rV, rSum := isa.Reg(5), isa.Reg(6), isa.Reg(7)
	b.LoadImm(rA, int64(idxA.Base))
	b.LoadImm(rB, int64(idxB.Base))
	b.LoadImm(rD, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("loop")
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rA)
	b.Load(rV, rT, 0, 4) // chain A striding
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8)
	b.Add(rSum, rSum, rV)
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rB)
	b.Load(rV, rT, 0, 4) // chain B striding
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8)
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 1<<13)
	b.BLT("loop")
	b.Halt()

	opt := DefaultOptions()
	core, eng := runWith(t, b.Build(), m, &opt, 1<<22)
	if eng.Stats.ChainStarts == 0 {
		t.Errorf("second chain never vectorized: %+v", eng.Stats)
	}
	// Both chains prefetched: SVR should still deliver a speedup.
	m2 := mem.New()
	_ = m2
	if core.CPI() > 8 {
		t.Errorf("unrolled CPI = %.2f, SVR not covering both chains?", core.CPI())
	}
}

func TestShortInnerLoopsThrottled(t *testing.T) {
	// Inner loops of only 4 iterations: Maxlength overfetches 4x; the
	// tournament predictor should throttle and be more accurate.
	build := func(m *mem.Memory) *isa.Program {
		idx := m.NewArray(1<<16, 4)
		data := m.NewArray(1<<18, 8)
		x := uint64(17)
		for i := uint64(0); i < idx.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			idx.Set(i, (x>>20)%data.N)
		}
		b := isa.NewBuilder("short")
		rIdx, rData, rI, rJ, rEnd := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
		rA, rV, rSum := isa.Reg(6), isa.Reg(7), isa.Reg(8)
		b.LoadImm(rIdx, int64(idx.Base))
		b.LoadImm(rData, int64(data.Base))
		b.LoadImm(rI, 0)
		b.Label("outer")
		b.Mov(rJ, rI)
		b.AddI(rEnd, rI, 4)
		b.Label("inner")
		b.ShlI(rA, rJ, 2)
		b.Add(rA, rA, rIdx)
		b.Load(rV, rA, 0, 4)
		b.ShlI(rV, rV, 3)
		b.Add(rV, rV, rData)
		b.Load(rV, rV, 0, 8)
		b.Add(rSum, rSum, rV)
		b.AddI(rJ, rJ, 1)
		b.Cmp(rJ, rEnd)
		b.BLT("inner")
		// Unrelated work between inner loops breaks the stride run.
		for k := 0; k < 6; k++ {
			b.AddI(9, 9, 1)
		}
		b.AddI(rI, rI, 64) // jump far: discontinuity for the stride
		b.CmpI(rI, 1<<15)
		b.BLT("outer")
		b.Halt()
		return b.Build()
	}

	runMode := func(mode LoopBoundMode) (Stats, cache.PFStats) {
		m := mem.New()
		p := build(m)
		opt := DefaultOptions()
		opt.LoopBound = mode
		opt.MonitorAccuracy = false // isolate the predictor effect
		_, eng := runWith(t, p, m, &opt, 1<<21)
		return eng.Stats, eng.H.Tracker.Stats[cache.OriginSVR]
	}

	_, maxPF := runMode(Maxlength)
	_, tourPF := runMode(Tournament)
	if maxPF.Issued == 0 || tourPF.Issued == 0 {
		t.Fatalf("prefetchers idle: max=%+v tour=%+v", maxPF, tourPF)
	}
	if tourPF.Accuracy() <= maxPF.Accuracy() {
		t.Errorf("tournament accuracy %.2f not better than maxlength %.2f on short loops",
			tourPF.Accuracy(), maxPF.Accuracy())
	}
}

func TestAccuracyMonitorBansAndRecovers(t *testing.T) {
	m := mem.New()
	h := cache.NewHierarchy(cache.DefaultConfig())
	cpu := emu.New(isa.NewBuilder("x").Build(), m)
	opt := DefaultOptions()
	opt.AccuracyWarmup = 10
	opt.AccuracyRecheck = 1000
	eng := New(opt, h, cpu)

	// Fake useless prefetches: marked then evicted untouched.
	for i := 0; i < 20; i++ {
		h.Tracker.Mark(uint64(0x1000+i*64), cache.OriginSVR)
		h.Tracker.Evict(uint64(0x1000 + i*64))
	}
	eng.mon.tick(500, 0, eng)
	if !eng.Banned() {
		t.Fatal("monitor did not ban after useless prefetches")
	}
	if eng.Stats.Bans != 1 {
		t.Errorf("bans = %d", eng.Stats.Bans)
	}
	// Recovery at the next recheck boundary.
	eng.mon.tick(999, 0, eng)
	if !eng.Banned() {
		t.Error("unbanned too early")
	}
	eng.mon.tick(1000, 0, eng)
	if eng.Banned() {
		t.Error("ban not lifted at recheck boundary")
	}
}

func TestDVRRecyclingPolicyHurtsWithTinySRF(t *testing.T) {
	// §VI-D: with 2 SRF registers, LRU recycling keeps working while the
	// DVR policy collapses coverage. The deep chain here needs 4 regs.
	build := func(m *mem.Memory) *isa.Program {
		idx := m.NewArray(1<<15, 4)
		mid := m.NewArray(1<<17, 4)
		data := m.NewArray(1<<18, 8)
		x := uint64(23)
		for i := uint64(0); i < idx.N; i++ {
			x = x*6364136223846793005 + 1
			idx.Set(i, (x>>20)%mid.N)
		}
		for i := uint64(0); i < mid.N; i++ {
			x = x*6364136223846793005 + 1
			mid.Set(i, (x>>20)%data.N)
		}
		// Distinct registers at every chain step keep many speculative
		// values live at once, stressing the 2-entry SRF.
		b := isa.NewBuilder("deep")
		rIdx, rMid, rData, rI := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
		rA := isa.Reg(5)
		rV, rX, rY, rZ, rU, rP, rQ, rSum := isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13)
		b.LoadImm(rIdx, int64(idx.Base))
		b.LoadImm(rMid, int64(mid.Base))
		b.LoadImm(rData, int64(data.Base))
		b.LoadImm(rI, 0)
		b.Label("loop")
		b.ShlI(rA, rI, 2)
		b.Add(rA, rA, rIdx)
		b.Load(rV, rA, 0, 4) // striding            (vector 1: rV)
		b.ShlI(rX, rV, 2)    //                     (vector 2: rX)
		b.Add(rY, rX, rMid)  //                     (vector 3: rY)
		b.Load(rZ, rY, 0, 4) // indirect level 1    (vector 4: rZ)
		b.ShlI(rU, rZ, 3)    //                     (vector 5: rU)
		b.Add(rP, rU, rData) //                     (vector 6: rP)
		b.Load(rQ, rP, 0, 8) // indirect level 2    (vector 7: rQ)
		b.Add(rSum, rSum, rQ)
		b.AddI(rI, rI, 1)
		b.CmpI(rI, 1<<13)
		b.BLT("loop")
		b.Halt()
		return b.Build()
	}
	runPolicy := func(p RecyclePolicy) (float64, Stats) {
		m := mem.New()
		prog := build(m)
		opt := DefaultOptions()
		opt.SRFRegs = 2
		opt.Recycle = p
		core, eng := runWith(t, prog, m, &opt, 1<<21)
		return core.CPI(), eng.Stats
	}
	lruCPI, _ := runPolicy(RecycleLRU)
	dvrCPI, dvrStats := runPolicy(RecycleNone)
	if dvrStats.Rounds == 0 {
		t.Fatal("DVR-policy run did not enter PRM")
	}
	if lruCPI >= dvrCPI {
		t.Errorf("LRU recycling (CPI %.2f) should beat DVR policy (CPI %.2f) with 2 SRF regs",
			lruCPI, dvrCPI)
	}
}

func TestScalarsPerSlotBarelyMatters(t *testing.T) {
	// Fig 16: SVR is memory-bound during PRM, so wider transient issue
	// hardly changes performance.
	cpis := map[int]float64{}
	for _, sps := range []int{1, 8} {
		m, idx, data := setupSI()
		opt := DefaultOptions()
		opt.ScalarsPerSlot = sps
		core, _ := runWith(t, buildStrideIndirect(idx, data, 1<<13), m, &opt, 1<<22)
		cpis[sps] = core.CPI()
	}
	ratio := cpis[1] / cpis[8]
	if ratio > 1.30 || ratio < 0.90 {
		t.Errorf("scalars-per-slot 1 vs 8 CPI ratio = %.2f, want ~1 (memory bound)", ratio)
	}
}

func TestRegCopyCostSlowsPRMEntry(t *testing.T) {
	run := func(cycles int64) float64 {
		m, idx, data := setupSI()
		opt := DefaultOptions()
		opt.RegCopyCycles = cycles
		core, _ := runWith(t, buildStrideIndirect(idx, data, 1<<13), m, &opt, 1<<22)
		return core.CPI()
	}
	if base, taxed := run(0), run(16); taxed <= base {
		t.Errorf("register-copy tax did not cost cycles: %.3f <= %.3f", taxed, base)
	}
}

func TestLILSuppressesTailSVIs(t *testing.T) {
	// Chain with a long tainted ALU tail after the last indirect load:
	// once LIL confidence builds, the tail must not be vectorized.
	m := mem.New()
	idx := m.NewArray(1<<15, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(31)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1
		idx.Set(i, (x>>20)%data.N)
	}
	b := isa.NewBuilder("tail")
	rIdx, rData, rI := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	rA, rV, rSum := isa.Reg(5), isa.Reg(6), isa.Reg(7)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("loop")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4)
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8) // last indirect load
	// Tainted tail: 6 ALU ops on the loaded value.
	for k := 0; k < 6; k++ {
		b.AddI(rV, rV, 1)
	}
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 1<<13)
	b.BLT("loop")
	b.Halt()

	opt := DefaultOptions()
	_, withLIL := runWith(t, b.Build(), m, &opt, 1<<21)
	// SVIs per round with LIL ~ 4 (addr calc + loads); without ~ 10.
	perRound := float64(withLIL.Stats.SVIs) / float64(withLIL.Stats.Rounds)
	if perRound > 8 {
		t.Errorf("SVIs per round = %.1f; LIL did not suppress the tainted tail", perRound)
	}
}

func TestLILOffsetLearnsAndSuppresses(t *testing.T) {
	// Fixed-shape chain: the offset of the last dependent load is
	// constant, so LIL confidence builds and the tail (6 tainted ALU
	// ops) stops being vectorized; SVIs per round must shrink after the
	// first few rounds.
	m := mem.New()
	idx := m.NewArray(1<<15, 4)
	data := m.NewArray(1<<18, 8)
	x := uint64(31)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1
		idx.Set(i, (x>>20)%data.N)
	}
	b := isa.NewBuilder("tail")
	rIdx, rData, rI := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	rA, rV, rSum := isa.Reg(5), isa.Reg(6), isa.Reg(7)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rI, 0)
	b.Label("loop")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4)
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8) // last dependent load: offset 3 in the round
	for k := 0; k < 6; k++ {
		b.AddI(rV, rV, 1) // tainted tail
	}
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.CmpI(rI, 1<<13)
	b.BLT("loop")
	b.Halt()

	opt := DefaultOptions()
	_, eng := runWith(t, b.Build(), m, &opt, 1<<21)
	sd := eng.SD.Lookup(eng.hslrPC)
	if sd == nil {
		t.Fatal("no stride entry for the HSLR")
	}
	if sd.LILConf < 2 {
		t.Fatalf("LIL confidence = %d, offset never learned", sd.LILConf)
	}
	// The last dependent load sits a few instructions into the round;
	// the learned offset must be small (well before the 6-op tail ends).
	if sd.LIL > 8 {
		t.Errorf("LIL offset = %d, want the dependent-load offset (<= 8)", sd.LIL)
	}
	perRound := float64(eng.Stats.SVIs) / float64(eng.Stats.Rounds)
	if perRound > 8 {
		t.Errorf("SVIs per round = %.1f; tail not suppressed", perRound)
	}
}

func TestLILOffsetDisengagesOnVariableRounds(t *testing.T) {
	// Rounds spanning variable-length inner loops never stabilize the
	// offset: confidence must stay low so no suppression engages and
	// coverage is preserved (the SSSP/hub case).
	m := mem.New()
	idx := m.NewArray(1<<15, 4)
	data := m.NewArray(1<<18, 8)
	lens := m.NewArray(1<<12, 4)
	x := uint64(77)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1
		idx.Set(i, (x>>20)%data.N)
	}
	for i := uint64(0); i < lens.N; i++ {
		x = x*6364136223846793005 + 1
		lens.Set(i, 2+(x>>40)%13) // inner length 2..14
	}
	b := isa.NewBuilder("varlen")
	rIdx, rData, rLen := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	rO, rI, rEnd, rA, rV, rSum, rN := isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9), isa.Reg(10)
	b.LoadImm(rIdx, int64(idx.Base))
	b.LoadImm(rData, int64(data.Base))
	b.LoadImm(rLen, int64(lens.Base))
	b.LoadImm(rO, 0)
	b.LoadImm(rI, 0)
	b.Label("outer")
	b.ShlI(rA, rO, 2)
	b.Add(rA, rA, rLen)
	b.Load(rN, rA, 0, 4) // striding head: inner length (outer owns HSLR)
	b.Add(rEnd, rI, rN)
	b.Cmp(rI, rEnd)
	b.BGE("next")
	b.Label("inner")
	b.ShlI(rA, rI, 2)
	b.Add(rA, rA, rIdx)
	b.Load(rV, rA, 0, 4)
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8)
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rEnd)
	b.BLT("inner")
	b.Label("next")
	b.AddI(rO, rO, 1)
	b.CmpI(rO, 1<<11)
	b.BLT("outer")
	b.Halt()

	opt := DefaultOptions()
	_, eng := runWith(t, b.Build(), m, &opt, 1<<21)
	if eng.Stats.Rounds == 0 {
		t.Fatal("no rounds")
	}
	// Suppression must not eat a meaningful share of the chain work.
	if eng.Stats.SkippedLIL > eng.Stats.SVIs/4 {
		t.Errorf("variable rounds over-suppressed: skipped=%d svis=%d",
			eng.Stats.SkippedLIL, eng.Stats.SVIs)
	}
}
