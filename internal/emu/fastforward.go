package emu

import (
	"fmt"

	"repro/internal/isa"
)

// This file is the functional fast-forward engine: execution without
// DynInstr streaming and without a timing model, used to reach a region
// of interest at a small fraction of detailed-simulation cost. One loop
// (FastForward) serves both modes: without a Warmer it touches only
// architectural state; with one it also reports the fetch/load/store/
// branch stream, so cache, TLB and branch-predictor state can be warmed
// without a timing model. It must stay allocation-free in steady state
// (guarded by TestFastForwardDoesNotAllocate and
// TestFastForwardWarmDoesNotAllocate) and must match Step's
// architectural semantics exactly (guarded by TestFastForwardMatchesStep,
// TestFastForwardWarmStream and FuzzFastForwardMatchesStep).

// ArchState is the portable architectural state of a CPU: everything
// Step mutates except the memory image. A checkpoint pairs it with a
// copy-on-write clone of the memory taken at the same instruction.
type ArchState struct {
	R      [isa.NumRegs]int64
	PC     int
	Flags  int
	Seq    uint64
	Halted bool
}

// SaveArch captures the CPU's architectural state.
func (c *CPU) SaveArch() ArchState {
	return ArchState{R: c.R, PC: c.PC, Flags: c.Flags, Seq: c.seq, Halted: c.halted}
}

// LoadArch restores architectural state saved by SaveArch. Prog and Mem
// are untouched: the caller pairs the state with the memory image that
// was captured alongside it.
func (c *CPU) LoadArch(s ArchState) {
	c.R, c.PC, c.Flags, c.seq, c.halted = s.R, s.PC, s.Flags, s.Seq, s.Halted
}

// Warmer receives the architectural event stream of a fast-forward so
// timing-free microarchitectural state (cache tags, TLB entries, branch
// predictor tables) can be warmed without running a timing model. The
// calls arrive in the order the detailed cores would have driven them:
// the fetch of every instruction, then the instruction's own event.
//
// Fetches may arrive folded. WarmFetch warms one fetch and returns the
// pc range [lo, hi) whose fetches are, until the next WarmFetch, hits
// that touch only fetch-side state no other event reads or writes. The
// fast-forward loop then counts fetches of pcs in that range instead of
// reporting each, and hands a run of n of them to WarmFetchHits(pc, n)
// before the next WarmFetch and before it returns, pc being the run's
// first instruction. An empty range turns folding off.
type Warmer interface {
	WarmFetch(pc int) (lo, hi int)
	WarmFetchHits(pc int, n uint64)
	WarmLoad(pc int, addr uint64)
	WarmStore(pc int, addr uint64)
	WarmBranch(pc int, taken bool)
}

// FastForward executes up to n instructions with no trace streaming and
// no timing, returning the number executed (short only if the program
// halted). Architectural state afterwards is bit-identical to n Step
// calls. A nil w runs unwarmed: no callbacks and no fetch-run
// bookkeeping. A non-nil w warms: it observes the fetch/load/store/branch
// stream, with runs of fetches folded as the Warmer contract allows, and
// only w's state changes in addition.
//
// The loop keeps PC and flags in locals (written back once) and inlines
// the hottest ALU semantics from EvalALU directly into the dispatch
// switch; TestFastForwardPureOpsMatchEvalALU pins the inlined cases to
// EvalALU op by op. This is the paper-scale skip engine: its rate, not
// the detailed models', bounds how cheaply regions can be reached.
func (c *CPU) FastForward(n uint64, w Warmer) uint64 {
	if c.halted {
		return 0
	}
	code := c.Prog.Code
	mem := c.Mem
	pc := c.PC
	flags := c.Flags
	warm := w != nil
	var done uint64
	var run fetchRun
	for done < n && pc < len(code) {
		if warm {
			if uint(pc-run.lo) < uint(run.hi-run.lo) {
				run.hits++
			} else {
				run.start(w, pc)
			}
		}
		in := code[pc]
		a, bv := c.R[in.Ra], c.R[in.Rb]
		nextPC := pc + 1
		var v int64
		switch in.Op {
		case isa.OpAdd:
			v = a + bv
			goto write
		case isa.OpAddI:
			v = a + in.Imm
			goto write
		case isa.OpLoad:
			// The load always executes (first touch may install a
			// page), matching Step even for an R0 destination.
			addr := uint64(a + in.Imm)
			v = loadSigned(mem, addr, in.Size)
			if warm {
				w.WarmLoad(pc, addr)
			}
			goto write
		case isa.OpStore:
			addr := uint64(a + in.Imm)
			mem.Write(addr, uint64(bv), in.Size)
			if warm {
				w.WarmStore(pc, addr)
			}
		case isa.OpCmp:
			flags = cmpSign(a, bv)
		case isa.OpCmpI:
			flags = cmpSign(a, in.Imm)
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLE, isa.OpBGT:
			taken := branchTaken(in.Op, flags)
			if taken {
				nextPC = int(in.Imm)
			}
			if warm {
				w.WarmBranch(pc, taken)
			}
		case isa.OpAndI:
			v = a & in.Imm
			goto write
		case isa.OpShlI:
			v = a << (uint64(in.Imm) & 63)
			goto write
		case isa.OpShrI:
			v = int64(uint64(a) >> (uint64(in.Imm) & 63))
			goto write
		case isa.OpMul:
			v = a * bv
			goto write
		case isa.OpMulI:
			v = a * in.Imm
			goto write
		case isa.OpLoadImm:
			v = in.Imm
			goto write
		case isa.OpJmp:
			nextPC = int(in.Imm)
		case isa.OpHalt:
			c.halted = true
			pc = nextPC
			done++
			goto out
		default:
			if ev, pure := EvalALU(in.Op, a, bv, in.Imm); pure {
				v = ev
				goto write
			}
			if in.Op != isa.OpNop {
				panic(fmt.Sprintf("emu: unknown opcode %v at pc %d", in.Op, pc))
			}
		}
		pc = nextPC
		done++
		continue
	write:
		if in.Rd != isa.R0 {
			c.R[in.Rd] = v
		}
		pc = nextPC
		done++
	}
out:
	if warm {
		run.flush(w)
	}
	c.PC = pc
	c.Flags = flags
	c.seq += done
	return done
}

// fetchRun is a warmed fast-forward's open fetch run: fetches of pcs in
// [lo, hi) after the run's first, pc, are counted in hits.
type fetchRun struct {
	pc, lo, hi int
	hits       uint64
}

// start reports the folded fetches of the run so far and opens a run at
// pc. It stays out of line so the run lives in memory, not in registers
// the unwarmed loop needs: held in locals, the run made that loop spill
// and cost about a third more per instruction.
//
//go:noinline
func (r *fetchRun) start(w Warmer, pc int) {
	r.flush(w)
	r.pc = pc
	r.lo, r.hi = w.WarmFetch(pc)
}

// flush reports the folded fetches of the run so far.
func (r *fetchRun) flush(w Warmer) {
	if r.hits > 0 {
		w.WarmFetchHits(r.pc, r.hits)
		r.hits = 0
	}
}
