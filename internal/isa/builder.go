package isa

import "fmt"

// Builder assembles a Program with forward-referencing labels and a tiny
// register allocator. All workload kernels in internal/workloads are
// written against this API.
type Builder struct {
	name    string
	code    []Instr
	labels  map[string]int
	fixups  []fixup
	nextReg Reg
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int), nextReg: 1}
}

// AllocReg hands out a fresh architectural register. It panics when the
// register file is exhausted; kernels are expected to fit in 32 registers
// like real compiled code for a 32-register machine.
func (b *Builder) AllocReg() Reg {
	if b.nextReg >= NumRegs {
		panic("isa: out of architectural registers")
	}
	r := b.nextReg
	b.nextReg++
	return r
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.code) }

// Label binds a name to the current PC. Referencing a label before binding
// it is allowed (forward branches).
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.code)
}

func (b *Builder) emit(in Instr) { b.code = append(b.code, in) }

func (b *Builder) emitBranch(op Op, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.emit(Instr{Op: op})
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Instr{Op: OpNop}) }

// Integer register-register ALU ops.

func (b *Builder) Add(rd, ra, rb Reg) { b.emit(Instr{Op: OpAdd, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Sub(rd, ra, rb Reg) { b.emit(Instr{Op: OpSub, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Mul(rd, ra, rb Reg) { b.emit(Instr{Op: OpMul, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Div(rd, ra, rb Reg) { b.emit(Instr{Op: OpDiv, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) And(rd, ra, rb Reg) { b.emit(Instr{Op: OpAnd, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Or(rd, ra, rb Reg)  { b.emit(Instr{Op: OpOr, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Xor(rd, ra, rb Reg) { b.emit(Instr{Op: OpXor, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Shl(rd, ra, rb Reg) { b.emit(Instr{Op: OpShl, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Shr(rd, ra, rb Reg) { b.emit(Instr{Op: OpShr, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Min(rd, ra, rb Reg) { b.emit(Instr{Op: OpMin, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) Max(rd, ra, rb Reg) { b.emit(Instr{Op: OpMax, Rd: rd, Ra: ra, Rb: rb}) }

// Integer register-immediate ALU ops.

func (b *Builder) AddI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpAddI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) MulI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpMulI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) AndI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpAndI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) OrI(rd, ra Reg, imm int64)  { b.emit(Instr{Op: OpOrI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) XorI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpXorI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) ShlI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpShlI, Rd: rd, Ra: ra, Imm: imm}) }
func (b *Builder) ShrI(rd, ra Reg, imm int64) { b.emit(Instr{Op: OpShrI, Rd: rd, Ra: ra, Imm: imm}) }

// Mov copies ra into rd (encoded as addi rd, ra, 0).
func (b *Builder) Mov(rd, ra Reg) { b.AddI(rd, ra, 0) }

// LoadImm sets rd to a constant.
func (b *Builder) LoadImm(rd Reg, imm int64) { b.emit(Instr{Op: OpLoadImm, Rd: rd, Imm: imm}) }

// LoadImmF sets rd to the bit pattern of a float64 constant.
func (b *Builder) LoadImmF(rd Reg, f float64) { b.LoadImm(rd, F2B(f)) }

// Floating point.

func (b *Builder) FAdd(rd, ra, rb Reg) { b.emit(Instr{Op: OpFAdd, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) FSub(rd, ra, rb Reg) { b.emit(Instr{Op: OpFSub, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) FMul(rd, ra, rb Reg) { b.emit(Instr{Op: OpFMul, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) FDiv(rd, ra, rb Reg) { b.emit(Instr{Op: OpFDiv, Rd: rd, Ra: ra, Rb: rb}) }
func (b *Builder) IToF(rd, ra Reg)     { b.emit(Instr{Op: OpIToF, Rd: rd, Ra: ra}) }
func (b *Builder) FToI(rd, ra Reg)     { b.emit(Instr{Op: OpFToI, Rd: rd, Ra: ra}) }

// Memory. Displacement-addressed; size in bytes.

func (b *Builder) Load(rd, base Reg, disp int64, size uint8) {
	checkSize(size)
	b.emit(Instr{Op: OpLoad, Rd: rd, Ra: base, Imm: disp, Size: size})
}

func (b *Builder) Store(data, base Reg, disp int64, size uint8) {
	checkSize(size)
	b.emit(Instr{Op: OpStore, Rb: data, Ra: base, Imm: disp, Size: size})
}

func checkSize(size uint8) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("isa: bad access size %d", size))
	}
}

// Compare and branch.

func (b *Builder) Cmp(ra, rb Reg)         { b.emit(Instr{Op: OpCmp, Ra: ra, Rb: rb}) }
func (b *Builder) CmpI(ra Reg, imm int64) { b.emit(Instr{Op: OpCmpI, Ra: ra, Imm: imm}) }

func (b *Builder) BEQ(label string) { b.emitBranch(OpBEQ, label) }
func (b *Builder) BNE(label string) { b.emitBranch(OpBNE, label) }
func (b *Builder) BLT(label string) { b.emitBranch(OpBLT, label) }
func (b *Builder) BGE(label string) { b.emitBranch(OpBGE, label) }
func (b *Builder) BLE(label string) { b.emitBranch(OpBLE, label) }
func (b *Builder) BGT(label string) { b.emitBranch(OpBGT, label) }
func (b *Builder) Jmp(label string) { b.emitBranch(OpJmp, label) }

// Halt terminates the program.
func (b *Builder) Halt() { b.emit(Instr{Op: OpHalt}) }

// Build resolves all label references and returns the finished Program.
// It panics on dangling labels — a programming error in a kernel.
// Parsers handling untrusted input should use BuildErr.
func (b *Builder) Build() *Program {
	p, err := b.BuildErr()
	if err != nil {
		panic("isa: " + err.Error())
	}
	return p
}

// BuildErr resolves all label references and returns the finished
// Program, or an error for dangling labels.
func (b *Builder) BuildErr() (*Program, error) {
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", f.label)
		}
		b.code[f.pc].Imm = int64(pc)
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	return &Program{Name: b.name, Code: b.code, labels: labels}, nil
}
