package stream

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// The recording format is one variable-length record per dynamic
// instruction: a flags byte followed by zero or more zigzag varints, in
// decode order PC, SrcA, SrcB, Addr, LoadVal, NextPC. Every field has a
// derivation rule; a varint is emitted only when the recorded value
// deviates from it, so a typical record is 1-4 bytes:
//
//	PC      = previous record's NextPC (sequential-by-construction)
//	Instr   = Prog.Code[PC] (never encoded; the program is the dictionary)
//	Seq     = StartSeq + record index (consecutive by contract)
//	SrcA    = regs[Ra] from the codec's tracked register file
//	SrcB    = Imm for cmpi, else regs[Rb]
//	Addr    = uint64(SrcA+Imm) for loads/stores (delta vs. previous
//	          address when the base-register rule does not hold)
//	LoadVal = 0 (explicit zigzag value otherwise)
//	Taken   = flags bit
//	NextPC  = branch rule: taken branches and jumps go to Imm, everything
//	          else falls through to PC+1
//
// Both ends track a 32-entry register file: source operands update it as
// observed, and after each record the destination is written back with
// the same semantics as architectural execution (emu.EvalALU for pure
// ops, LoadVal for loads). Registers therefore deviate from the rules
// only on their first appearance mid-stream, and a steady-state record
// costs bytes exclusively for what the program text cannot predict: load
// results and branch outcomes. The rules mirror emu.CPU.Step exactly;
// encoder and decoder run them in the same order, so the format needs no
// framing beyond the flags bits.
const (
	fTaken byte = 1 << iota
	fPC
	fSrcA
	fSrcB
	fAddr
	fLoadVal
	fNextPC
)

// Recording is one encoded dynamic instruction stream: the compact
// buffer plus the program that decodes it and the stream's origin
// coordinates. It is immutable once built and safe to share across
// concurrently-replaying cells.
type Recording struct {
	Prog     *isa.Program
	Buf      []byte
	N        uint64 // number of records
	StartSeq uint64 // Seq of the first record
	StartPC  int    // PC of the first record
	Halted   bool   // the program halted within the recorded window

	// StartRegs/StartFlags are the architectural register file and
	// compare flags at the recording start point. Both codec ends seed
	// their tracked register file from StartRegs, which makes the
	// decoder's file architecturally exact at every record boundary (not
	// merely self-consistent) — the property replay-backed ArchState
	// views rely on — and spares the encoder the first-appearance deltas
	// for registers live across the start point.
	StartRegs  [isa.NumRegs]int64
	StartFlags int

	// End is the recording emulator's architectural state after the
	// last record: where a machine that timed this window resumes, e.g.
	// for the next fast-forward gap of a multi-region schedule. Set by
	// Record.
	End emu.ArchState
}

// Bytes returns the encoded size of the stream.
func (r *Recording) Bytes() int { return len(r.Buf) }

// BytesPerInstr returns the mean encoded record size.
func (r *Recording) BytesPerInstr() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(len(r.Buf)) / float64(r.N)
}

// Encoder incrementally builds a Recording from a DynInstr stream. The
// stream must come from executing Prog: records are trusted to carry
// Instr == Prog.Code[PC] and consecutive Seq numbers (both are
// regenerated, not stored, on decode).
type Encoder struct {
	rec      Recording
	expPC    int
	prevAddr uint64
	regs     [isa.NumRegs]int64 // tracked register file (regs[0] stays 0)
	nextSeq  uint64
	started  bool
}

// NewEncoder returns an encoder for streams executed from prog.
func NewEncoder(prog *isa.Program) *Encoder {
	return &Encoder{rec: Recording{Prog: prog}}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// ruleNextPC is Step's control-flow rule: where execution goes when the
// record's outcome bits are known.
func ruleNextPC(in isa.Instr, pc int, taken bool) int {
	switch in.Kind() {
	case isa.KindBranch:
		if taken {
			return int(in.Imm)
		}
	case isa.KindJump:
		return int(in.Imm)
	}
	return pc + 1
}

// Append encodes one record. It returns an error if the record breaks
// the stream contract (non-consecutive Seq, PC outside the program, or
// an Instr that does not match the program text).
func (e *Encoder) Append(rec *emu.DynInstr) error {
	if !e.started {
		e.started = true
		e.rec.StartSeq = rec.Seq
		e.rec.StartPC = rec.PC
		e.expPC = rec.PC
		e.nextSeq = rec.Seq
	}
	if rec.Seq != e.nextSeq {
		return fmt.Errorf("stream: non-consecutive Seq %d (want %d)", rec.Seq, e.nextSeq)
	}
	if rec.PC < 0 || rec.PC >= len(e.rec.Prog.Code) {
		return fmt.Errorf("stream: PC %d outside program (%d instrs)", rec.PC, len(e.rec.Prog.Code))
	}
	in := e.rec.Prog.Code[rec.PC]
	if rec.Instr != in {
		return fmt.Errorf("stream: record Instr %v does not match program text %v at pc %d", rec.Instr, in, rec.PC)
	}
	e.nextSeq++

	var flags byte
	var tail [6]uint64
	nt := 0
	push := func(f byte, v uint64) {
		flags |= f
		tail[nt] = v
		nt++
	}

	if rec.Taken {
		flags |= fTaken
	}
	if rec.PC != e.expPC {
		push(fPC, zigzag(int64(rec.PC-e.expPC)))
	}

	ruleA := e.regs[in.Ra]
	if rec.SrcA != ruleA {
		push(fSrcA, zigzag(rec.SrcA-ruleA))
	}
	if in.Ra != isa.R0 {
		e.regs[in.Ra] = rec.SrcA
	}

	ruleB := e.regs[in.Rb]
	if in.Op == isa.OpCmpI {
		ruleB = in.Imm
	}
	if rec.SrcB != ruleB {
		push(fSrcB, zigzag(rec.SrcB-ruleB))
	}
	if in.Rb != isa.R0 && in.Op != isa.OpCmpI {
		e.regs[in.Rb] = rec.SrcB
	}

	ruleAddr := uint64(0)
	if in.IsMem() {
		ruleAddr = uint64(rec.SrcA + in.Imm)
	}
	if rec.Addr != ruleAddr {
		push(fAddr, zigzag(int64(rec.Addr-e.prevAddr)))
	}
	if in.IsMem() {
		e.prevAddr = rec.Addr
	}

	if rec.LoadVal != 0 {
		push(fLoadVal, zigzag(rec.LoadVal))
	}
	if rec.NextPC != ruleNextPC(in, rec.PC, rec.Taken) {
		push(fNextPC, zigzag(int64(rec.NextPC-rec.PC)))
	}

	writeBack(&e.regs, in, rec.SrcA, rec.SrcB, rec.LoadVal)

	e.rec.Buf = append(e.rec.Buf, flags)
	for i := 0; i < nt; i++ {
		e.rec.Buf = appendUvarint(e.rec.Buf, tail[i])
	}
	e.expPC = rec.NextPC
	e.rec.N++
	return nil
}

// writeBack updates the tracked register file with the record's
// destination value, mirroring architectural execution: pure ops compute
// through EvalALU, loads write their loaded value. Ops without a
// register result (stores, compares, control flow) leave the file
// untouched, exactly like emu.CPU.Step.
func writeBack(regs *[isa.NumRegs]int64, in isa.Instr, srcA, srcB, loadVal int64) {
	if in.Rd == isa.R0 {
		return
	}
	if v, pure := emu.EvalALU(in.Op, srcA, srcB, in.Imm); pure {
		regs[in.Rd] = v
	} else if in.Op == isa.OpLoad {
		regs[in.Rd] = loadVal
	}
}

// Finish returns the completed recording. The encoder must not be used
// afterwards.
func (e *Encoder) Finish() *Recording {
	r := e.rec
	e.rec = Recording{}
	return &r
}

// Record executes up to n instructions on cpu, encoding the stream. The
// CPU's memory image is mutated exactly as a normal run would mutate it;
// callers that need the pre-run image use RecordAhead or pass a clone. A
// stream shorter than n means the program halted (Recording.Halted).
func Record(cpu *emu.CPU, n uint64) (*Recording, error) { return record(cpu, n, nil) }

// RecordAhead is Record for a front end that runs ahead of a timing back
// end sharing its memory image: the bytes each store overwrites are
// logged as the window executes and written back afterwards, so the
// image ends as it started while cpu's architectural state ends at the
// window's end. Unlike recording on a copy-on-write clone, it copies no
// page the back end would not copy anyway when it replays the same
// stores.
func RecordAhead(cpu *emu.CPU, n uint64) (*Recording, error) {
	var undo []overwrite
	r, err := record(cpu, n, &undo)
	for i := len(undo) - 1; i >= 0; i-- {
		cpu.Mem.Write(undo[i].addr, undo[i].old, undo[i].size)
	}
	return r, err
}

// overwrite is the memory a store is about to replace.
type overwrite struct {
	addr uint64
	old  uint64
	size uint8
}

// record is Record, logging what each store overwrites into undo when
// undo is non-nil.
func record(cpu *emu.CPU, n uint64, undo *[]overwrite) (*Recording, error) {
	e := NewEncoder(cpu.Prog)
	// Seed the tracked register file (and record the seed) from the
	// CPU's architectural state at the start point, so decoders
	// reconstruct exact register values from the first record on.
	e.regs = cpu.R
	e.rec.StartRegs = cpu.R
	e.rec.StartFlags = cpu.Flags
	// Pre-size for the common ~2.5 bytes/instr so the append loop does not
	// repeatedly re-grow a multi-megabyte buffer.
	if n > 0 && n < 1<<32 {
		e.rec.Buf = make([]byte, 0, 3*n)
	}
	var rec emu.DynInstr
	var done uint64
	for done < n {
		if undo != nil && !cpu.Halted() {
			if in := cpu.Prog.Code[cpu.PC]; in.Op == isa.OpStore {
				addr := uint64(cpu.R[in.Ra] + in.Imm)
				*undo = append(*undo, overwrite{addr, cpu.Mem.Read(addr, in.Size), in.Size})
			}
		}
		if !cpu.Step(&rec) {
			break
		}
		if err := e.Append(&rec); err != nil {
			return nil, err
		}
		done++
	}
	r := e.Finish()
	r.Halted = done < n
	r.End = cpu.SaveArch()
	return r, nil
}
