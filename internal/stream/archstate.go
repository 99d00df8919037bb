package stream

import (
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ArchView is the replay-backed ArchState of one timed machine: a
// private register file, compare flags and memory image. Cohort members
// share one decoder, so each member that reads architectural state
// reconstructs its view row by row from the shared batch columns
// (Advance, called before the row issues), applying exactly the
// write-back, flag and store rules of execution. The view is therefore
// bit-identical to a lockstep emulator's post-Step state at every
// observation point, and its image ends a window in the window's end
// state.
type ArchView struct {
	regs  [isa.NumRegs]int64
	flags int
	mem   *mem.Memory
}

// NewArchView returns a view positioned at r's start point, over m —
// a private clone of the memory image in the state the recording pass
// started from.
func NewArchView(r *Recording, m *mem.Memory) *ArchView {
	return &ArchView{regs: r.StartRegs, flags: r.StartFlags, mem: m}
}

// Advance applies rec's architectural effects to the view: destination
// write-back (pure ops and loads), compare flags, and stores into the
// private image. Identical to the decoder's own per-record updates, and
// to emu.CPU.Step's — rec.SrcB already carries the immediate for cmpi.
func (v *ArchView) Advance(rec *emu.DynInstr) {
	in := rec.Instr
	writeBack(&v.regs, in, rec.SrcA, rec.SrcB, rec.LoadVal)
	switch in.Op {
	case isa.OpCmp, isa.OpCmpI:
		v.flags = emu.CmpSign(rec.SrcA, rec.SrcB)
	case isa.OpStore:
		v.mem.Write(rec.Addr, uint64(rec.SrcB), in.Size)
	}
}

// Reg returns the architectural value of register r at the view's
// position.
func (v *ArchView) Reg(r isa.Reg) int64 { return v.regs[r] }

// ReadMem reads the view's private memory image, zero-extended.
func (v *ArchView) ReadMem(addr uint64, size uint8) uint64 { return v.mem.Read(addr, size) }

// CmpFlags returns the sign of the last compare at the view's position.
func (v *ArchView) CmpFlags() int { return v.flags }
