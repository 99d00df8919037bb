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
// This split is the only way anything drives a core.
//
// Timing models that read architectural state (the SVR engine
// scavenges register values and dereferences memory at the retire
// point) consume it through the ArchState interface: an ArchView
// advanced over the decoded rows, or a live emu.CPU in the tests that
// hold the recorded path to a lockstep reference.
package stream

import "repro/internal/isa"

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
