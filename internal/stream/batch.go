package stream

import (
	"sync"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The decode-once half of the execution path: a Recording is decoded
// into flat struct-of-arrays chunks (DecodedBatch) exactly once per
// cohort of sibling timing cells, and every member steps over the
// shared columns. The columns are filled BY ReplaySource.Next itself,
// so a batch consumer sees bit-identical records by construction —
// there is no second decoder to drift.

// DecodedBatch is one chunk of a Recording decoded into SoA columns:
// the static instruction plus the dynamic operand/address/outcome
// values of each record, indexable without any decoder state. A filled
// batch is only read while the members of a cohort step it.
type DecodedBatch struct {
	StartSeq uint64 // Seq of row 0
	N        int    // rows filled

	Instr   []isa.Instr
	PC      []int32
	NextPC  []int32
	Addr    []uint64
	SrcA    []int64
	SrcB    []int64
	LoadVal []int64
	Taken   []bool
}

// grow makes the columns hold at least n rows, reusing prior storage.
func (b *DecodedBatch) grow(n int) {
	if cap(b.Instr) < n {
		b.Instr = make([]isa.Instr, n)
		b.PC = make([]int32, n)
		b.NextPC = make([]int32, n)
		b.Addr = make([]uint64, n)
		b.SrcA = make([]int64, n)
		b.SrcB = make([]int64, n)
		b.LoadVal = make([]int64, n)
		b.Taken = make([]bool, n)
	}
	b.Instr = b.Instr[:n]
	b.PC = b.PC[:n]
	b.NextPC = b.NextPC[:n]
	b.Addr = b.Addr[:n]
	b.SrcA = b.SrcA[:n]
	b.SrcB = b.SrcB[:n]
	b.LoadVal = b.LoadVal[:n]
	b.Taken = b.Taken[:n]
}

// Fill decodes up to max records from src into b, reusing b's column
// storage. Returns the rows decoded (0 at end of stream). The decode is
// ReplaySource.Next verbatim, so the columns hold exactly the records
// the recording pass produced.
func (b *DecodedBatch) Fill(src *ReplaySource, max int) int {
	b.grow(max)
	b.StartSeq = src.seq
	var rec emu.DynInstr
	n := 0
	for n < max && src.Next(&rec) {
		b.Instr[n] = rec.Instr
		b.PC[n] = int32(rec.PC)
		b.NextPC[n] = int32(rec.NextPC)
		b.Addr[n] = rec.Addr
		b.SrcA[n] = rec.SrcA
		b.SrcB[n] = rec.SrcB
		b.LoadVal[n] = rec.LoadVal
		b.Taken[n] = rec.Taken
		n++
	}
	b.grow(n)
	b.N = n
	return n
}

// Row copies row i into rec — the same field-complete assignment
// ReplaySource.Next performs, so consumers that reuse one DynInstr see
// no cross-record leakage.
func (b *DecodedBatch) Row(i int, rec *emu.DynInstr) {
	rec.Seq = b.StartSeq + uint64(i)
	rec.PC = int(b.PC[i])
	rec.Instr = b.Instr[i]
	rec.Addr = b.Addr[i]
	rec.LoadVal = b.LoadVal[i]
	rec.SrcA = b.SrcA[i]
	rec.SrcB = b.SrcB[i]
	rec.Taken = b.Taken[i]
	rec.NextPC = int(b.NextPC[i])
}

// ApplyStores performs the stores among rows [lo, hi) on m exactly as
// execution wrote them. A timing model that reads no architectural
// state carries its private memory image across windows this way.
func (b *DecodedBatch) ApplyStores(m *mem.Memory, lo, hi int) {
	for i := lo; i < hi; i++ {
		if in := b.Instr[i]; in.Op == isa.OpStore {
			m.Write(b.Addr[i], uint64(b.SrcB[i]), in.Size)
		}
	}
}

// replayPool recycles ReplaySource decode state (the tracked register
// file is the bulk) so opening a window's decoder stops allocating: the
// grid churns through one source per timed window.
var replayPool = sync.Pool{New: func() any { return new(ReplaySource) }}

// Recycle returns a source to the decode-scratch pool. The caller must
// be the last user: sources are never shared between walks.
func (s *ReplaySource) Recycle() {
	*s = ReplaySource{}
	replayPool.Put(s)
}
