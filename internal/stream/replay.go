package stream

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// ReplaySource decodes a Recording back into the exact DynInstr sequence
// the recording pass produced, without touching the emulator. Decoding
// runs the encoder's derivation rules in reverse, so the hot path is a
// flags-byte dispatch plus the few varints the record actually carries.
// It needs no memory image: timing models that read architectural state
// observe it through an ArchView advanced over the decoded rows.
type ReplaySource struct {
	rec  *Recording
	code []isa.Instr

	pos      int
	done     uint64
	seq      uint64
	expPC    int
	prevAddr uint64
	regs     [isa.NumRegs]int64 // tracked register file, mirrors the encoder's
	err      error
}

// NewReplay returns a source replaying r from its start. The source
// comes from the decode-scratch pool; callers that know the stream is
// finished hand it back with Recycle.
func NewReplay(r *Recording) *ReplaySource {
	s := replayPool.Get().(*ReplaySource)
	*s = ReplaySource{
		rec:   r,
		code:  r.Prog.Code,
		seq:   r.StartSeq,
		expPC: r.StartPC,
		regs:  r.StartRegs,
	}
	return s
}

// Err returns the first decode error, if any. A nil error with Next
// having returned false means the stream ended cleanly.
func (s *ReplaySource) Err() error { return s.err }

func (s *ReplaySource) fail(format string, args ...any) bool {
	if s.err == nil {
		s.err = fmt.Errorf("stream: "+format, args...)
	}
	return false
}

// Next decodes one record into rec, returning false at end of stream or
// on a malformed buffer (check Err to distinguish).
func (s *ReplaySource) Next(rec *emu.DynInstr) bool {
	if s.done >= s.rec.N || s.err != nil {
		return false
	}
	buf := s.rec.Buf
	pos := s.pos
	if pos >= len(buf) {
		return s.fail("truncated buffer at record %d", s.done)
	}
	flags := buf[pos]
	pos++

	// Inline uvarint: the one-byte case covers almost every delta.
	varint := func() (uint64, bool) {
		if pos >= len(buf) {
			return 0, false
		}
		v := uint64(buf[pos])
		pos++
		if v < 0x80 {
			return v, true
		}
		v &= 0x7f
		for shift := uint(7); ; shift += 7 {
			if pos >= len(buf) || shift > 63 {
				return 0, false
			}
			b := buf[pos]
			pos++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v, true
			}
		}
	}

	pc := s.expPC
	if flags&fPC != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated PC delta at record %d", s.done)
		}
		pc += int(unzigzag(u))
	}
	if pc < 0 || pc >= len(s.code) {
		return s.fail("PC %d outside program at record %d", pc, s.done)
	}
	in := s.code[pc]

	srcA := s.regs[in.Ra]
	if flags&fSrcA != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated SrcA at record %d", s.done)
		}
		srcA += unzigzag(u)
	}
	if in.Ra != isa.R0 {
		s.regs[in.Ra] = srcA
	}

	srcB := s.regs[in.Rb]
	if in.Op == isa.OpCmpI {
		srcB = in.Imm
	}
	if flags&fSrcB != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated SrcB at record %d", s.done)
		}
		srcB += unzigzag(u)
	}
	if in.Rb != isa.R0 && in.Op != isa.OpCmpI {
		s.regs[in.Rb] = srcB
	}

	isMem := in.Op == isa.OpLoad || in.Op == isa.OpStore
	addr := uint64(0)
	if flags&fAddr != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated Addr at record %d", s.done)
		}
		addr = s.prevAddr + uint64(unzigzag(u))
	} else if isMem {
		addr = uint64(srcA + in.Imm)
	}
	if isMem {
		s.prevAddr = addr
	}

	loadVal := int64(0)
	if flags&fLoadVal != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated LoadVal at record %d", s.done)
		}
		loadVal = unzigzag(u)
	}

	taken := flags&fTaken != 0
	nextPC := 0
	if flags&fNextPC != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated NextPC at record %d", s.done)
		}
		nextPC = pc + int(unzigzag(u))
	} else {
		nextPC = ruleNextPC(in, pc, taken)
	}

	writeBack(&s.regs, in, srcA, srcB, loadVal)

	rec.Seq = s.seq
	rec.PC = pc
	rec.Instr = in
	rec.Addr = addr
	rec.LoadVal = loadVal
	rec.SrcA = srcA
	rec.SrcB = srcB
	rec.Taken = taken
	rec.NextPC = nextPC

	s.seq++
	s.expPC = nextPC
	s.pos = pos
	s.done++
	return true
}
