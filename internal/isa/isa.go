// Package isa defines the mini RISC instruction set used by the simulator.
//
// The machine has 32 general-purpose 64-bit integer registers (R0 is
// hardwired to zero), a flags register written only by compare
// instructions, and a flat 64-bit byte-addressable memory. Floating-point
// values are stored in the integer registers as IEEE-754 bit patterns and
// operated on by the F-prefixed opcodes, mirroring how the paper's
// workloads mix integer index arithmetic with floating-point vertex data.
//
// Programs are sequences of instructions addressed by instruction index
// ("PC"). Branch targets are instruction indices. Loads and stores use
// base+displacement addressing (addr = R[Ra] + Imm), which forces address
// arithmetic into explicit instructions — exactly the dependence chains the
// SVR taint tracker follows.
package isa

import (
	"fmt"
	"slices"
	"strings"
)

// Reg identifies one of the 32 architectural registers.
type Reg uint8

// NumRegs is the architectural register count (matches the paper's
// 32-entry taint tracker).
const NumRegs = 32

// R0 is hardwired to zero; writes to it are discarded.
const R0 Reg = 0

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. The set is deliberately small: enough to express the
// paper's graph, database and HPC kernels, yet regular enough that the
// timing models can classify every instruction by a handful of kinds.
const (
	OpNop Op = iota

	// Integer ALU, register-register.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Integer ALU, register-immediate.
	OpAddI
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Load upper/immediate material. Rd = Imm.
	OpLoadImm

	// Min/max (used by CC and SSSP kernels).
	OpMin
	OpMax

	// Floating point (operands are float64 bit patterns in registers).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Conversions.
	OpIToF // Rd = float64(Ra) bits
	OpFToI // Rd = int64(float64 bits in Ra)

	// Memory. addr = R[Ra] + Imm. Size gives the access width in bytes
	// (1, 2, 4 or 8); loads zero-extend except OpLoad with Size 8.
	OpLoad
	OpStore

	// Compare: sets the flags register from signed comparison of
	// R[Ra] and R[Rb]. The only writer of flags, which is what the
	// paper's Last Compare (LC) register tracks.
	OpCmp
	// CmpI compares R[Ra] against the immediate.
	OpCmpI

	// Conditional branches on flags. Imm is the target instruction index.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLE
	OpBGT

	// Unconditional jump to Imm.
	OpJmp

	// Halt stops the program.
	OpHalt

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpMulI: "muli", OpAndI: "andi", OpOrI: "ori",
	OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpLoadImm: "li",
	OpMin:     "min", OpMax: "max",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpIToF: "itof", OpFToI: "ftoi",
	OpLoad: "ld", OpStore: "st",
	OpCmp: "cmp", OpCmpI: "cmpi",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLE: "ble", OpBGT: "bgt",
	OpJmp:  "jmp",
	OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one static instruction.
type Instr struct {
	Op   Op
	Rd   Reg   // destination register (loads, ALU)
	Ra   Reg   // first source (also load/store base)
	Rb   Reg   // second source (also store data register)
	Imm  int64 // immediate / displacement / branch target
	Size uint8 // access width in bytes for loads and stores
}

// Kind groups opcodes by how the timing models treat them.
type Kind uint8

// Instruction kinds.
const (
	KindNop Kind = iota
	KindALU
	KindMul
	KindDiv
	KindFPU
	KindLoad
	KindStore
	KindCmp
	KindBranch
	KindJump
	KindHalt
)

// Kind reports the timing class of the instruction.
func (in Instr) Kind() Kind {
	switch in.Op {
	case OpNop:
		return KindNop
	case OpMul, OpMulI:
		return KindMul
	case OpDiv, OpFDiv:
		return KindDiv
	case OpFAdd, OpFSub, OpFMul, OpIToF, OpFToI:
		return KindFPU
	case OpLoad:
		return KindLoad
	case OpStore:
		return KindStore
	case OpCmp, OpCmpI:
		return KindCmp
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLE, OpBGT:
		return KindBranch
	case OpJmp:
		return KindJump
	case OpHalt:
		return KindHalt
	default:
		return KindALU
	}
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Instr) IsBranch() bool { return in.Kind() == KindBranch }

// IsMem reports whether the instruction accesses memory.
func (in Instr) IsMem() bool { k := in.Kind(); return k == KindLoad || k == KindStore }

// WritesReg reports whether the instruction writes a destination register,
// and which one. Writes to R0 are architectural no-ops but still reported
// so taint tracking can clear mappings.
func (in Instr) WritesReg() (Reg, bool) {
	switch in.Kind() {
	case KindALU, KindMul, KindDiv, KindFPU, KindLoad:
		return in.Rd, true
	}
	return 0, false
}

// SrcRegs appends the source registers of the instruction to dst and
// returns it. R0 reads are included (they read constant zero).
func (in Instr) SrcRegs(dst []Reg) []Reg {
	switch in.Op {
	case OpNop, OpLoadImm, OpJmp, OpHalt,
		OpBEQ, OpBNE, OpBLT, OpBGE, OpBLE, OpBGT:
		return dst
	case OpAddI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI,
		OpIToF, OpFToI, OpCmpI:
		return append(dst, in.Ra)
	case OpLoad:
		return append(dst, in.Ra)
	case OpStore:
		return append(dst, in.Ra, in.Rb)
	default:
		return append(dst, in.Ra, in.Rb)
	}
}

// String renders the instruction in an assembly-like syntax.
func (in Instr) String() string {
	switch in.Kind() {
	case KindNop, KindHalt:
		return in.Op.String()
	case KindLoad:
		return fmt.Sprintf("%s%d r%d, [r%d%+d]", in.Op, in.Size*8, in.Rd, in.Ra, in.Imm)
	case KindStore:
		return fmt.Sprintf("%s%d r%d, [r%d%+d]", in.Op, in.Size*8, in.Rb, in.Ra, in.Imm)
	case KindCmp:
		if in.Op == OpCmpI {
			return fmt.Sprintf("cmpi r%d, %d", in.Ra, in.Imm)
		}
		return fmt.Sprintf("cmp r%d, r%d", in.Ra, in.Rb)
	case KindBranch, KindJump:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	default:
		switch in.Op {
		case OpLoadImm:
			return fmt.Sprintf("li r%d, %d", in.Rd, in.Imm)
		case OpAddI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI:
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
		case OpIToF, OpFToI:
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Ra)
		default:
			return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Ra, in.Rb)
		}
	}
}

// Program is an immutable sequence of instructions plus its entry point.
type Program struct {
	Name   string
	Code   []Instr
	labels map[string]int
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// LabelPC returns the instruction index bound to a label.
func (p *Program) LabelPC(name string) (int, bool) {
	pc, ok := p.labels[name]
	return pc, ok
}

// Disasm renders the whole program, one instruction per line, with
// label annotations; labels bound to one PC print in name order.
func (p *Program) Disasm() string {
	byPC := make(map[int][]string)
	for name, pc := range p.labels {
		byPC[pc] = append(byPC[pc], name)
	}
	var out strings.Builder
	for pc, in := range p.Code {
		labels := byPC[pc]
		slices.Sort(labels)
		for _, l := range labels {
			out.WriteString(l + ":\n")
		}
		fmt.Fprintf(&out, "  %4d: %s\n", pc, in)
	}
	return out.String()
}
