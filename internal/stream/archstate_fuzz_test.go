package stream

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

// FuzzArchStateMatchesLive is the fidelity contract of the replay-backed
// architectural-state view: over a synthesized program window, an
// ArchView advanced record by record over the decoded stream must
// expose exactly the same architectural observations — every register,
// the compare flags, and memory probes — as a live CPU at every retire
// boundary. This is the property that lets SVR and IMP cells time from
// recordings: their only functional reads go through this interface.
func FuzzArchStateMatchesLive(f *testing.F) {
	// Seed: compare/branch mix so flags tracking is exercised, plus
	// stores so the private memory clones diverge from the pristine image.
	mix := []byte{}
	for _, line := range [][8]byte{
		{16, 1, 0, 0, 100, 0, 0, 0}, // li r1, 100
		{25, 6, 2, 0, 0, 0, 3, 0},   // ld64 r6, [r2+0]
		{28, 0, 2, 6, 4, 0, 3, 0},   // st64 r6, [r2+4]
		{31, 0, 6, 0, 2, 0, 0, 0},   // cmpi r6, 2
		{35, 0, 0, 0, 1, 0, 0, 0},   // bne @1
		{30, 0, 1, 6, 0, 0, 0, 0},   // cmp r1, r6
		{9, 2, 2, 0, 16, 0, 0, 0},   // addi r2, r2, 16
	} {
		mix = append(mix, line[:]...)
	}
	f.Add(mix)

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := synthesize(data)
		if prog == nil {
			t.Skip()
		}
		const maxSteps = 4096

		// Record the window from one CPU...
		cpuRec := emu.New(prog, newTestMem())
		seedRegs(cpuRec, data)
		recd, err := Record(cpuRec, maxSteps)
		if err != nil {
			t.Fatalf("Record: %v", err)
		}

		// ...then walk a live CPU and an ArchView over the decoded stream
		// in lockstep, comparing architectural observations at every
		// boundary.
		live := emu.New(prog, newTestMem())
		seedRegs(live, data)
		rs := NewReplay(recd)
		view := NewArchView(recd, newTestMem())

		probes := []uint64{dataBase, dataBase + 8, dataBase + 128}
		check := func(i uint64, rec *emu.DynInstr) {
			t.Helper()
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if lv, vv := live.Reg(r), view.Reg(r); lv != vv {
					t.Fatalf("record %d: r%d live=%d view=%d", i, r, lv, vv)
				}
			}
			if lf, vf := live.CmpFlags(), view.CmpFlags(); lf != vf {
				t.Fatalf("record %d: flags live=%d view=%d", i, lf, vf)
			}
			addrs := probes
			if rec != nil && (rec.Instr.Op == isa.OpLoad || rec.Instr.Op == isa.OpStore) {
				addrs = append(addrs, rec.Addr)
			}
			for _, a := range addrs {
				for _, sz := range fuzzSizes {
					if lm, vm := live.ReadMem(a, sz), view.ReadMem(a, sz); lm != vm {
						t.Fatalf("record %d: mem[%#x]/%d live=%#x view=%#x", i, a, sz, lm, vm)
					}
				}
			}
		}

		check(0, nil) // start-of-window state (StartRegs/StartFlags seeding)
		var lrec, rrec emu.DynInstr
		for i := uint64(0); i < recd.N; i++ {
			if !live.Step(&lrec) {
				t.Fatalf("live CPU halted at record %d of %d", i, recd.N)
			}
			if !rs.Next(&rrec) {
				t.Fatalf("replay ended at record %d of %d (err=%v)", i, recd.N, rs.Err())
			}
			if lrec != rrec {
				t.Fatalf("record %d mismatch:\nlive   %+v\nreplay %+v", i, lrec, rrec)
			}
			view.Advance(&rrec)
			check(i+1, &rrec)
		}
	})
}
