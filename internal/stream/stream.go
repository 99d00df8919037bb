// Package stream decouples the functional instruction stream from the
// timing models: the simulator's functional front end.
//
// Every timing cell of a (config × workload) grid consumes the same
// dynamic instruction stream — the functional execution is a pure
// function of the workload, not of the timing configuration. Following
// the RAVE/Vehave split (arxiv 2111.01949), a workload window is
// emulated once into a compact Recording (Record) and decoded
// (ReplaySource, DecodedBatch) into the rows N timing models step,
// instead of re-running the emulator in lockstep inside every cell.
// InstrSource and LiveSource remain for the core-level tools that drive
// a bare core straight from an emulator.
//
// Timing models that read architectural state (the SVR engine
// scavenges register values and dereferences memory at the retire
// point) consume it through the ArchState interface: an ArchView
// advanced over the decoded rows, or a live emu.CPU in the core-level
// tools.
package stream

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// InstrSource produces the dynamic instruction stream a timing model
// consumes: one DynInstr per Next call, false once the stream ends
// (program halt, or end of a recording).
type InstrSource interface {
	Next(rec *emu.DynInstr) bool
}

// ArchState is the architectural state a timing model may read at the
// retire point of the instruction it was just handed: register values,
// data memory, and the compare flags. The live emulator (emu.CPU)
// implements it directly; timed cells observe the same values through
// an ArchView.
// By contract the state reflects execution up to and including the most
// recent DynInstr the consumer received — exactly what a lockstep
// emulator would show after Step.
type ArchState interface {
	// Reg returns the architectural value of register r.
	Reg(r isa.Reg) int64
	// ReadMem returns size bytes of data memory at addr, zero-extended.
	ReadMem(addr uint64, size uint8) uint64
	// CmpFlags returns the sign of the last compare: -1, 0, +1.
	CmpFlags() int
}

// LiveSource feeds a timing model straight from the functional emulator:
// every Next executes one instruction on the wrapped CPU. This is the
// classic lockstep arrangement — architectural state lags the timing
// model by at most one instruction, which is what the SVR engine's
// value scavenging relies on.
type LiveSource struct {
	CPU *emu.CPU
}

// NewLive wraps a CPU as an InstrSource.
func NewLive(cpu *emu.CPU) *LiveSource { return &LiveSource{CPU: cpu} }

// Next executes one instruction, filling rec.
func (s *LiveSource) Next(rec *emu.DynInstr) bool { return s.CPU.Step(rec) }
