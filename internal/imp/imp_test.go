package imp

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// buildStrideIndirect emits sum += data[idx[i]] — IMP's ideal pattern.
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
	b.Load(rV, rA, 0, 4)
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rData)
	b.Load(rV, rV, 0, 8)
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
	data := m.NewArray(1<<20, 8)
	x := uint64(99)
	for i := uint64(0); i < idx.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx.Set(i, (x>>16)%data.N)
	}
	return m, idx, data
}

func runIMP(t *testing.T, p *isa.Program, m *mem.Memory, withIMP bool) (*inorder.Core, *Prefetcher) {
	t.Helper()
	h := cache.NewHierarchy(cache.DefaultConfig())
	core := inorder.New(inorder.DefaultConfig(), h)
	cpu := emu.New(p, m)
	var pf *Prefetcher
	if withIMP {
		pf = New(DefaultConfig(), h, m)
		core.Companion = pf
	}
	var rec emu.DynInstr
	for i := 0; i < 1<<22 && cpu.Step(&rec); i++ {
		core.Issue(&rec)
	}
	return core, pf
}

func TestIMPLearnsStrideIndirect(t *testing.T) {
	m, idx, data := setupSI()
	_, pf := runIMP(t, buildStrideIndirect(idx, data, 1<<12), m, true)
	if pf.Established == 0 {
		t.Fatal("IMP never established the A[B[i]] pattern")
	}
	if pf.Prefetches == 0 {
		t.Fatal("IMP issued no prefetches")
	}
	if pf.H.DRAMLoads[cache.OriginIMP] == 0 {
		t.Error("IMP prefetches never reached DRAM")
	}
}

func TestIMPSpeedsUpStrideIndirect(t *testing.T) {
	m1, i1, d1 := setupSI()
	base, _ := runIMP(t, buildStrideIndirect(i1, d1, 1<<13), m1, false)
	m2, i2, d2 := setupSI()
	fast, _ := runIMP(t, buildStrideIndirect(i2, d2, 1<<13), m2, true)
	if sp := base.CPI() / fast.CPI(); sp < 1.5 {
		t.Errorf("IMP speedup = %.2fx (base %.2f, imp %.2f), want > 1.5x",
			sp, base.CPI(), fast.CPI())
	}
}

func TestIMPFailsOnPointerChase(t *testing.T) {
	// Hash-probe-like pattern: no linear index->address relation.
	m := mem.New()
	const n = 1 << 14
	nodes := m.NewArray(n, 8)
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	x := uint64(17)
	for i := n - 1; i > 0; i-- {
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
	b.LoadImm(1, int64(nodes.Addr(perm[0])))
	b.LoadImm(2, 0)
	b.Label("loop")
	b.Load(1, 1, 0, 8)
	b.AddI(2, 2, 1)
	b.CmpI(2, 4000)
	b.BLT("loop")
	b.Halt()
	_, pf := runIMP(t, b.Build(), m, true)
	if pf.Established != 0 {
		t.Errorf("IMP claimed to learn a pattern on a pointer chase (%d)", pf.Established)
	}
}

func TestIMPOverfetchesShortLoops(t *testing.T) {
	// 4-iteration inner loops with jumps between: IMP still prefetches
	// its full depth (16), so most prefetched lines are never used.
	m := mem.New()
	idx := m.NewArray(1<<17, 4)
	data := m.NewArray(1<<19, 8)
	x := uint64(5)
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
	b.AddI(rI, rI, 64) // jump far away
	b.CmpI(rI, 1<<17)
	b.BLT("outer")
	b.Halt()

	_, pf := runIMP(t, b.Build(), m, true)
	if pf.Prefetches == 0 {
		t.Skip("IMP did not trigger on this pattern")
	}
	st := pf.H.Tracker.Stats[cache.OriginIMP]
	if st.Issued == 0 {
		t.Fatal("no tracked IMP prefetches")
	}
	if acc := st.Accuracy(); acc > 0.6 {
		t.Errorf("IMP accuracy on 4-iteration loops = %.2f, expected poor (<0.6)", acc)
	}
}

func TestIMPConfidenceDecaysOnPatternBreak(t *testing.T) {
	// Establish a pattern, then feed mismatching observations: the
	// candidate entry must decay rather than keep prefetching garbage.
	h := cache.NewHierarchy(cache.DefaultConfig())
	m := mem.New()
	pf := New(DefaultConfig(), h, m)

	// Train the stride table at PC 1 with values v, and miss addresses
	// consistent with base + v*8 at PC 2.
	base := uint64(0x100000)
	mkLoad := func(pc int, addr uint64, val int64, lvl cache.Level) {
		rec := &emu.DynInstr{PC: pc, Addr: addr, LoadVal: val,
			Instr: isa.Instr{Op: isa.OpLoad, Rd: 1, Ra: 2, Size: 4}}
		pf.OnIssue(rec, 0, lvl)
	}
	vals := []int64{100, 37, 911, 4, 555, 62, 703, 128} // random-ish indices
	for i, v := range vals {
		mkLoad(1, 0x2000+uint64(i)*4, v, cache.LevelL1) // index load
		mkLoad(2, base+uint64(v)*8, 0, cache.LevelMem)  // indirect miss
	}
	if pf.Established == 0 {
		t.Fatal("pattern never established")
	}
	// Now break the pattern at a new PC pair: candidate must not
	// establish from inconsistent pairs.
	estBefore := pf.Established
	w := int64(5)
	for i := 0; i < 8; i++ {
		mkLoad(11, 0x9000+uint64(i)*4, w, cache.LevelL1)
		mkLoad(12, uint64(0x500000)+uint64(i*i*977), 0, cache.LevelMem) // no linear relation
		w += 3
	}
	if pf.Established != estBefore {
		t.Errorf("established a pattern from inconsistent pairs")
	}
}
