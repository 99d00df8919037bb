package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// buildScatter builds a kernel exercising every class the fast-forward
// loop dispatches on: loads, stores, both branch directions, compares and
// an unconditional jump. dst[i] = running sum of src[0..i]; odd sums are
// negated so the conditional-inside-the-loop goes both ways.
func buildScatter(src, dst uint64, n int64) *isa.Program {
	b := isa.NewBuilder("scatter")
	rSrc, rDst, rI, rN, rA, rV, rSum, rOne := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
	b.LoadImm(rSrc, int64(src))
	b.LoadImm(rDst, int64(dst))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, n)
	b.LoadImm(rSum, 0)
	b.LoadImm(rOne, 1)
	b.Label("loop")
	b.ShlI(rA, rI, 3)
	b.Add(rA, rA, rSrc)
	b.Load(rV, rA, 0, 8)
	b.Add(rSum, rSum, rV)
	b.And(rV, rSum, rOne)
	b.Cmp(rV, isa.R0)
	b.BEQ("even")
	b.Sub(rV, isa.R0, rSum)
	b.Jmp("store")
	b.Label("even")
	b.Add(rV, rSum, isa.R0)
	b.Label("store")
	b.ShlI(rA, rI, 3)
	b.Add(rA, rA, rDst)
	b.Store(rV, rA, 0, 8)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()
	return b.Build()
}

func scatterSetup(t *testing.T) (*isa.Program, *mem.Memory, uint64) {
	t.Helper()
	m := mem.New()
	src := m.NewArray(64, 8)
	dst := m.NewArray(64, 8)
	for i := uint64(0); i < 64; i++ {
		src.SetI(i, int64(3*i+1))
	}
	return buildScatter(src.Base, dst.Base, 64), m, dst.Base
}

// TestFastForwardMatchesStep checks that FastForward leaves the CPU in
// the exact architectural state the streaming Step loop would: registers,
// PC, flags, instruction count, halt status and memory contents.
func TestFastForwardMatchesStep(t *testing.T) {
	for _, n := range []uint64{0, 1, 7, 100, 1 << 20} {
		prog, m1, dst := scatterSetup(t)
		m2 := m1.Clone()

		ref := New(prog, m1)
		var rec DynInstr
		var stepped uint64
		for stepped < n && ref.Step(&rec) {
			stepped++
		}

		ff := New(prog, m2)
		ran := ff.FastForward(n, nil)
		if ran != stepped {
			t.Fatalf("n=%d: FastForward ran %d, Step ran %d", n, ran, stepped)
		}
		if got, want := ff.SaveArch(), ref.SaveArch(); got != want {
			t.Fatalf("n=%d: arch state diverged:\n ff  %+v\n ref %+v", n, got, want)
		}
		for i := uint64(0); i < 64; i++ {
			if a, b := m2.ReadI64(dst+8*i), m1.ReadI64(dst+8*i); a != b {
				t.Fatalf("n=%d: dst[%d] = %d via fast-forward, %d via step", n, i, a, b)
			}
		}
	}
}

// warmEvent is one callback seen by recordingWarmer.
type warmEvent struct {
	kind  byte // 'f', 'h', 'l', 's', 'b'
	pc    int
	addr  uint64
	taken bool
	n     uint64 // folded fetches ('h')
}

// recordingWarmer records every callback. With fold > 0 it offers the
// aligned block of fold pcs around each fetched pc for folding.
type recordingWarmer struct {
	fold int
	evs  []warmEvent
}

func (r *recordingWarmer) WarmFetch(pc int) (lo, hi int) {
	r.evs = append(r.evs, warmEvent{kind: 'f', pc: pc})
	if r.fold == 0 {
		return 0, 0
	}
	lo = pc - pc%r.fold
	return lo, lo + r.fold
}
func (r *recordingWarmer) WarmFetchHits(pc int, n uint64) {
	r.evs = append(r.evs, warmEvent{kind: 'h', pc: pc, n: n})
}
func (r *recordingWarmer) WarmLoad(pc int, addr uint64) {
	r.evs = append(r.evs, warmEvent{kind: 'l', pc: pc, addr: addr})
}
func (r *recordingWarmer) WarmStore(pc int, addr uint64) {
	r.evs = append(r.evs, warmEvent{kind: 's', pc: pc, addr: addr})
}
func (r *recordingWarmer) WarmBranch(pc int, taken bool) {
	r.evs = append(r.evs, warmEvent{kind: 'b', pc: pc, taken: taken})
}

// TestFastForwardWarmStream checks that the warming fast-forward reports
// exactly the fetch/load/store/branch stream the DynInstr trace carries,
// in the order the detailed front end would drive it (fetch first, then
// the instruction's memory or branch event), and leaves Step's
// architectural state. With folding on, the expected stream applies the
// Warmer contract to the trace: a fetch inside the range the run's
// WarmFetch returned is counted, and the count is reported before the
// next WarmFetch and at the end of every warmed FastForward call.
func TestFastForwardWarmStream(t *testing.T) {
	for _, fold := range []int{0, 1, 4, 16} {
		for _, chunk := range []uint64{1 << 20, 7, 1} {
			prog, m1, dst := scatterSetup(t)
			m2 := m1.Clone()

			ref := New(prog, m1)
			var want []warmEvent
			var rec DynInstr
			runPC, lo, hi := 0, 0, 0
			var hits uint64
			flush := func() {
				if hits > 0 {
					want = append(want, warmEvent{kind: 'h', pc: runPC, n: hits})
					hits = 0
				}
			}
			for ref.Step(&rec) {
				if rec.PC >= lo && rec.PC < hi {
					hits++
				} else {
					flush()
					want = append(want, warmEvent{kind: 'f', pc: rec.PC})
					runPC = rec.PC
					if fold > 0 {
						lo = rec.PC - rec.PC%fold
						hi = lo + fold
					}
				}
				switch rec.Instr.Kind() {
				case isa.KindLoad:
					want = append(want, warmEvent{kind: 'l', pc: rec.PC, addr: rec.Addr})
				case isa.KindStore:
					want = append(want, warmEvent{kind: 's', pc: rec.PC, addr: rec.Addr})
				case isa.KindBranch:
					want = append(want, warmEvent{kind: 'b', pc: rec.PC, taken: rec.Taken})
				}
				if ref.InstrCount()%chunk == 0 {
					flush() // the call returns: its run ends
					lo, hi = 0, 0
				}
			}
			flush()

			w := &recordingWarmer{fold: fold}
			ff := New(prog, m2)
			var ran uint64
			for {
				k := ff.FastForward(chunk, w)
				ran += k
				if k < chunk {
					break
				}
			}
			if ran != ref.InstrCount() {
				t.Fatalf("fold %d chunk %d: warm ran %d, step ran %d", fold, chunk, ran, ref.InstrCount())
			}
			if got, want := ff.SaveArch(), ref.SaveArch(); got != want {
				t.Fatalf("fold %d chunk %d: arch state diverged:\n warm %+v\n step %+v", fold, chunk, got, want)
			}
			for i := uint64(0); i < 64; i++ {
				if a, b := m2.ReadI64(dst+8*i), m1.ReadI64(dst+8*i); a != b {
					t.Fatalf("fold %d chunk %d: dst[%d] = %d warmed, %d stepped", fold, chunk, i, a, b)
				}
			}
			if len(w.evs) != len(want) {
				t.Fatalf("fold %d chunk %d: warm stream has %d events, trace implies %d", fold, chunk, len(w.evs), len(want))
			}
			for i := range want {
				if w.evs[i] != want[i] {
					t.Fatalf("fold %d chunk %d: event %d: warm %+v, trace %+v", fold, chunk, i, w.evs[i], want[i])
				}
			}
		}
	}
}

// TestSaveLoadArchRoundTrip interrupts a run mid-flight, transplants the
// architectural state into a fresh CPU over a cloned memory, and checks
// both finish identically.
func TestSaveLoadArchRoundTrip(t *testing.T) {
	prog, m1, dst := scatterSetup(t)

	c1 := New(prog, m1)
	c1.FastForward(333, nil)
	snap := c1.SaveArch()
	m2 := m1.Clone()

	c2 := New(prog, m2)
	c2.LoadArch(snap)
	if c2.SaveArch() != snap {
		t.Fatal("LoadArch did not reproduce the saved state")
	}

	n1 := c1.FastForward(1<<20, nil)
	n2 := c2.FastForward(1<<20, nil)
	if n1 != n2 {
		t.Fatalf("continuations ran %d vs %d instructions", n1, n2)
	}
	if c1.SaveArch() != c2.SaveArch() {
		t.Fatal("continuations diverged")
	}
	for i := uint64(0); i < 64; i++ {
		if a, b := m1.ReadI64(dst+8*i), m2.ReadI64(dst+8*i); a != b {
			t.Fatalf("dst[%d] = %d vs %d after restored continuation", i, a, b)
		}
	}
}

// TestFastForwardPureOpsMatchEvalALU pins the ALU cases inlined into the
// fast-forward loop's dispatch switch, unwarmed and warmed, to EvalALU,
// op by op: for every pure opcode and a grid of operand values, a
// one-instruction program must leave exactly EvalALU's result in the
// destination register.
func TestFastForwardPureOpsMatchEvalALU(t *testing.T) {
	operands := []int64{0, 1, -1, 5, 12, -12, 63, 64, 1 << 40, -(1 << 40)}
	for opv := 0; opv < 256; opv++ {
		op := isa.Op(opv)
		for _, a := range operands {
			for _, b := range operands {
				want, pure := EvalALU(op, a, b, b)
				if !pure {
					continue
				}
				prog := &isa.Program{Name: "pin", Code: []isa.Instr{
					{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: b},
					{Op: isa.OpHalt},
				}}
				for _, warm := range []bool{false, true} {
					c := New(prog, mem.New())
					c.SetReg(2, a)
					c.SetReg(3, b)
					var ran uint64
					if warm {
						ran = c.FastForward(1, &recordingWarmer{})
					} else {
						ran = c.FastForward(1, nil)
					}
					if ran != 1 {
						t.Fatalf("op %v warm=%v: ran %d", op, warm, ran)
					}
					if got := c.Reg(1); got != want {
						t.Errorf("op %v a=%d b=imm=%d warm=%v: fast-forward %d, EvalALU %d", op, a, b, warm, got, want)
					}
				}
			}
		}
	}
}

// TestFastForwardHaltedNoop checks a halted CPU stays put.
func TestFastForwardHaltedNoop(t *testing.T) {
	prog, m, _ := scatterSetup(t)
	c := New(prog, m)
	c.FastForward(1<<20, nil)
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	before := c.SaveArch()
	if ran := c.FastForward(100, nil); ran != 0 {
		t.Fatalf("halted CPU ran %d instructions", ran)
	}
	if c.SaveArch() != before {
		t.Fatal("halted fast-forward mutated state")
	}
}
