// Package emu implements the functional (architectural) emulator. It
// executes a Program against a memory image and streams DynInstr records —
// the dynamic instruction trace with resolved operand values, effective
// addresses and branch outcomes — to the timing models.
//
// Timing is trace-driven: a core model pulls one record at a time, so the
// architectural state lags the timing model by at most its window size.
// The SVR engine exploits this lockstep to scavenge current register
// values (the paper's LBD+CV mechanism, §IV-B2).
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// DynInstr is one dynamic (executed) instruction record.
type DynInstr struct {
	Seq   uint64    // dynamic instruction number, from 0
	PC    int       // static instruction index
	Instr isa.Instr // the static instruction

	Addr    uint64 // effective address for loads/stores
	LoadVal int64  // value loaded (loads only)

	SrcA, SrcB int64 // resolved source operand values
	Taken      bool  // branch outcome (branches only)
	NextPC     int   // PC of the next dynamic instruction
}

// CPU is the architectural state of the mini machine.
type CPU struct {
	Prog  *isa.Program
	Mem   *mem.Memory
	R     [isa.NumRegs]int64
	PC    int
	Flags int // sign of last compare: -1, 0, +1

	halted bool
	seq    uint64
}

// New returns a CPU at the program entry point with zeroed registers.
func New(p *isa.Program, m *mem.Memory) *CPU {
	return &CPU{Prog: p, Mem: m}
}

// Halted reports whether the program has executed a halt (or run off the
// end of its code).
func (c *CPU) Halted() bool { return c.halted || c.PC >= len(c.Prog.Code) }

// Reg returns the current architectural value of register r. Used by the
// SVR engine for loop-bound scavenging.
func (c *CPU) Reg(r isa.Reg) int64 { return c.R[r] }

// ReadMem returns size bytes of data memory at addr, zero-extended.
// With Reg and CmpFlags it makes the live CPU an architectural-state
// view (stream.ArchState): the lockstep reference the tests hold the
// SVR engine's replay-backed views to.
func (c *CPU) ReadMem(addr uint64, size uint8) uint64 { return c.Mem.Read(addr, size) }

// CmpFlags returns the sign of the last compare: -1, 0, +1.
func (c *CPU) CmpFlags() int { return c.Flags }

// SetReg initializes register r (for passing kernel arguments).
func (c *CPU) SetReg(r isa.Reg, v int64) {
	if r != isa.R0 {
		c.R[r] = v
	}
}

// InstrCount returns the number of instructions executed so far.
func (c *CPU) InstrCount() uint64 { return c.seq }

// Step executes one instruction, filling rec, and reports whether an
// instruction was executed (false once halted).
func (c *CPU) Step(rec *DynInstr) bool {
	if c.Halted() {
		return false
	}
	in := c.Prog.Code[c.PC]
	// Field-wise reset instead of `*rec = DynInstr{...}`: only Addr,
	// LoadVal and Taken survive from the previous record (the rest is
	// unconditionally assigned below), so clearing just those three avoids
	// re-zeroing the whole record on every instruction.
	rec.Seq = c.seq
	rec.PC = c.PC
	rec.Instr = in
	rec.Addr = 0
	rec.LoadVal = 0
	rec.Taken = false
	c.seq++
	nextPC := c.PC + 1

	a, bv := c.R[in.Ra], c.R[in.Rb]
	rec.SrcA, rec.SrcB = a, bv
	var rd int64
	writes := true

	if v, pure := EvalALU(in.Op, a, bv, in.Imm); pure {
		rd = v
	} else {
		writes = false // provisional; the switch below overrides for loads
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpLoadImm, isa.OpMin, isa.OpMax,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv,
		isa.OpIToF, isa.OpFToI:
		// Handled by EvalALU above.
	case isa.OpLoad:
		addr := uint64(a + in.Imm)
		rec.Addr = addr
		rd = loadSigned(c.Mem, addr, in.Size)
		rec.LoadVal = rd
		writes = true
	case isa.OpStore:
		addr := uint64(a + in.Imm)
		rec.Addr = addr
		c.Mem.Write(addr, uint64(bv), in.Size)
		writes = false
	case isa.OpCmp:
		c.Flags = cmpSign(a, bv)
		writes = false
	case isa.OpCmpI:
		c.Flags = cmpSign(a, in.Imm)
		rec.SrcB = in.Imm
		writes = false
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLE, isa.OpBGT:
		writes = false
		if branchTaken(in.Op, c.Flags) {
			rec.Taken = true
			nextPC = int(in.Imm)
		}
	case isa.OpJmp:
		writes = false
		rec.Taken = true
		nextPC = int(in.Imm)
	case isa.OpHalt:
		writes = false
		c.halted = true
	default:
		panic(fmt.Sprintf("emu: unknown opcode %v at pc %d", in.Op, c.PC))
	}

	if writes && in.Rd != isa.R0 {
		c.R[in.Rd] = rd
	}
	c.PC = nextPC
	rec.NextPC = nextPC
	return true
}

func loadSigned(m *mem.Memory, addr uint64, size uint8) int64 {
	v := m.Read(addr, size)
	if size == 8 {
		return int64(v)
	}
	return int64(v) // narrower loads zero-extend
}

func cmpSign(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func branchTaken(op isa.Op, flags int) bool {
	switch op {
	case isa.OpBEQ:
		return flags == 0
	case isa.OpBNE:
		return flags != 0
	case isa.OpBLT:
		return flags < 0
	case isa.OpBGE:
		return flags >= 0
	case isa.OpBLE:
		return flags <= 0
	case isa.OpBGT:
		return flags > 0
	}
	return false
}

// EvalALU computes the result of a pure register-to-register operation
// (ALU, FP, immediate, conversion). It reports pure=false for opcodes with
// side effects (memory, flags, control flow), which the caller must handle
// itself. The SVR engine uses it to compute speculative lane values with
// exactly the semantics of architectural execution.
func EvalALU(op isa.Op, a, b, imm int64) (v int64, pure bool) {
	switch op {
	case isa.OpAdd:
		return a + b, true
	case isa.OpSub:
		return a - b, true
	case isa.OpMul:
		return a * b, true
	case isa.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case isa.OpAnd:
		return a & b, true
	case isa.OpOr:
		return a | b, true
	case isa.OpXor:
		return a ^ b, true
	case isa.OpShl:
		return a << (uint64(b) & 63), true
	case isa.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case isa.OpAddI:
		return a + imm, true
	case isa.OpMulI:
		return a * imm, true
	case isa.OpAndI:
		return a & imm, true
	case isa.OpOrI:
		return a | imm, true
	case isa.OpXorI:
		return a ^ imm, true
	case isa.OpShlI:
		return a << (uint64(imm) & 63), true
	case isa.OpShrI:
		return int64(uint64(a) >> (uint64(imm) & 63)), true
	case isa.OpLoadImm:
		return imm, true
	case isa.OpMin:
		return min(a, b), true
	case isa.OpMax:
		return max(a, b), true
	case isa.OpFAdd:
		return isa.F2B(isa.B2F(a) + isa.B2F(b)), true
	case isa.OpFSub:
		return isa.F2B(isa.B2F(a) - isa.B2F(b)), true
	case isa.OpFMul:
		return isa.F2B(isa.B2F(a) * isa.B2F(b)), true
	case isa.OpFDiv:
		return isa.F2B(isa.B2F(a) / isa.B2F(b)), true
	case isa.OpIToF:
		return isa.F2B(float64(a)), true
	case isa.OpFToI:
		return int64(isa.B2F(a)), true
	}
	return 0, false
}

// BranchTaken exposes the branch condition evaluation for the SVR engine,
// which must evaluate per-lane branch outcomes on speculative flag values.
func BranchTaken(op isa.Op, flags int) bool { return branchTaken(op, flags) }

// CmpSign exposes the comparator for the SVR engine's per-lane compares.
func CmpSign(a, b int64) int { return cmpSign(a, b) }

// Run executes up to maxInstr instructions discarding the trace; useful to
// fast-forward past initialization or to run a kernel functionally in
// tests. It returns the number of instructions executed.
func (c *CPU) Run(maxInstr uint64) uint64 {
	var rec DynInstr
	var n uint64
	for n < maxInstr && c.Step(&rec) {
		n++
	}
	return n
}
