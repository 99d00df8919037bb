// Package ooo models the out-of-order comparison core of Table III: 3-wide
// dispatch/commit, 32-entry ROB, 32-entry reservation station, 16-entry
// load/store queue, same branch predictor and memory hierarchy as the
// in-order core. The configuration deliberately allows the same number of
// in-flight instructions as the in-order scoreboard (32) for the paper's
// fair comparison.
//
// The model is a trace-driven window: instructions dispatch in order into
// the ROB, issue data-driven when their sources are ready (renaming
// removes false dependences), and commit in order. Memory-level
// parallelism emerges from independent loads overlapping within the ROB
// window, bounded by the LSQ and the L1 MSHRs.
package ooo

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config parameterizes the core.
type Config struct {
	Width             int
	ROB               int
	RS                int
	LSQ               int
	MemPorts          int
	MispredictPenalty int64

	LatALU, LatMul, LatDiv, LatFPU int64
	BPredTableBits                 uint
}

// DefaultConfig mirrors Table III's out-of-order column.
func DefaultConfig() Config {
	return Config{
		Width: 3, ROB: 32, RS: 32, LSQ: 16, MemPorts: 2, MispredictPenalty: 10,
		LatALU: 1, LatMul: 3, LatDiv: 12, LatFPU: 4,
		BPredTableBits: 12,
	}
}

// codeBase mirrors the in-order core's synthetic code segment address.
const codeBase = 0x4000_0000

// Core is the out-of-order timing model.
type Core struct {
	Cfg    Config
	H      *cache.Hierarchy
	BP     *bpred.Predictor
	Tracer trace.Tracer // optional pipeline event tracing

	dispatchSlot int64        // front-end cursor, slot units
	commitSlot   int64        // in-order commit cursor, slot units
	rob          ring         // FIFO of commit times of in-flight entries
	lsq          ring         // FIFO of commit times of in-flight mem ops
	rs           []int64      // issue times of entries occupying the reservation station
	batchRec     emu.DynInstr // scratch row for RunBatch (keeps the loop allocation-free)
	regReady     [isa.NumRegs]int64
	regReason    [isa.NumRegs]stats.StallReason
	flagsReady   int64
	fetchReady   int64
	memPortFree  []int64
	storeReady   map[uint64]int64 // line addr -> latest prior store completion

	startCycle int64

	// Stats.
	Stack      stats.CPIStack
	Instrs     uint64
	Loads      uint64
	Stores     uint64
	Branches   uint64
	LoadsByLvl [3]uint64
}

// New builds a core over the given memory hierarchy and registers its
// statistics with the hierarchy's metrics registry; non-counter window
// state (CPI stack, window start cycle) re-baselines via an OnReset hook.
func New(cfg Config, h *cache.Hierarchy) *Core {
	c := &Core{
		Cfg:         cfg,
		H:           h,
		BP:          bpred.New(cfg.BPredTableBits),
		rob:         newRing(cfg.ROB),
		lsq:         newRing(cfg.LSQ),
		rs:          make([]int64, 0, cfg.RS),
		memPortFree: make([]int64, cfg.MemPorts),
		storeReady:  make(map[uint64]int64),
	}
	r := h.Reg
	r.Uint64("core.instrs", "instructions committed", &c.Instrs)
	r.Uint64("core.loads", "loads issued", &c.Loads)
	r.Uint64("core.stores", "stores issued", &c.Stores)
	r.Uint64("core.branches", "conditional branches issued", &c.Branches)
	r.Uint64("core.loads.l1", "loads served from L1", &c.LoadsByLvl[cache.LevelL1])
	r.Uint64("core.loads.l2", "loads served from L2", &c.LoadsByLvl[cache.LevelL2])
	r.Uint64("core.loads.mem", "loads served from DRAM", &c.LoadsByLvl[cache.LevelMem])
	r.Int64("bpred.lookups", "branch predictor lookups", &c.BP.Lookups)
	r.Int64("bpred.mispredicts", "branch mispredictions", &c.BP.Mispredict)
	r.OnReset(func() {
		c.Stack = stats.CPIStack{}
		c.startCycle = c.cycleOf(c.commitSlot)
	})
	return c
}

func (c *Core) cycleOf(slot int64) int64 { return slot / int64(c.Cfg.Width) }

func levelReason(l cache.Level) stats.StallReason {
	switch l {
	case cache.LevelMem:
		return stats.StallMemDRAM
	case cache.LevelL2:
		return stats.StallMemL2
	default:
		return stats.StallOther
	}
}

// Issue runs one dynamic instruction through the window model.
func (c *Core) Issue(rec *emu.DynInstr) {
	in := rec.Instr

	// Dispatch: in order, 3/cycle, blocked by fetch bubbles and ROB space.
	dSlot := c.dispatchSlot
	if bubble := c.H.FetchInstr(codeBase+uint64(rec.PC)*4, c.cycleOf(dSlot)); bubble > 0 {
		if fr := c.cycleOf(dSlot) + bubble; fr > c.fetchReady {
			c.fetchReady = fr
		}
	}
	if fr := c.fetchReady * int64(c.Cfg.Width); fr > dSlot {
		dSlot = fr
	}
	if c.rob.len >= c.Cfg.ROB {
		oldest := c.rob.pop()
		if os := oldest * int64(c.Cfg.Width); os > dSlot {
			dSlot = os
		}
	}
	if in.IsMem() && c.lsq.len >= c.Cfg.LSQ {
		oldest := c.lsq.pop()
		if os := oldest * int64(c.Cfg.Width); os > dSlot {
			dSlot = os
		}
	}
	// Reservation station: entries occupy a slot from dispatch until
	// they issue; a full RS stalls dispatch until the earliest issue.
	c.pruneRS(c.cycleOf(dSlot))
	for len(c.rs) >= c.Cfg.RS {
		earliest := c.rs[0]
		for _, t := range c.rs[1:] {
			if t < earliest {
				earliest = t
			}
		}
		if es := earliest * int64(c.Cfg.Width); es > dSlot {
			dSlot = es
		}
		c.pruneRS(earliest)
		if len(c.rs) >= c.Cfg.RS {
			// All remaining entries issue at or after `earliest`; drop
			// the earliest one explicitly to guarantee progress.
			drop := 0
			for i, t := range c.rs {
				if t < c.rs[drop] {
					drop = i
				}
			}
			c.rs[drop] = c.rs[len(c.rs)-1]
			c.rs = c.rs[:len(c.rs)-1]
		}
	}
	dispatch := c.cycleOf(dSlot)
	c.dispatchSlot = dSlot + 1

	// Issue: data-driven.
	ready := dispatch
	reason := stats.StallBase
	var srcBuf [2]isa.Reg
	for _, r := range in.SrcRegs(srcBuf[:0]) {
		if c.regReady[r] > ready {
			ready = c.regReady[r]
			reason = c.regReason[r]
		}
	}
	if (in.IsBranch() || in.Kind() == isa.KindCmp) && c.flagsReady > ready {
		// cmp/branch pairs serialize on flags like real condition codes.
		if in.IsBranch() {
			ready = c.flagsReady
			reason = stats.StallOther
		}
	}

	lineAddr := rec.Addr &^ (cache.LineSize - 1)
	if in.Kind() == isa.KindLoad {
		if sr, ok := c.storeReady[lineAddr]; ok && sr > ready {
			// Store-to-load: the load cannot bypass the producer store.
			ready = sr
			reason = stats.StallOther
		}
	}

	// Memory port.
	if in.IsMem() {
		best := 0
		for i := range c.memPortFree {
			if c.memPortFree[i] < c.memPortFree[best] {
				best = i
			}
		}
		if c.memPortFree[best] > ready {
			ready = c.memPortFree[best]
			reason = stats.StallOther
		}
		c.memPortFree[best] = ready + 1
	}

	// Execute.
	complete := ready + c.Cfg.LatALU
	switch in.Kind() {
	case isa.KindLoad:
		res := c.H.Access(rec.PC, rec.Addr, false, ready)
		complete = res.CompleteAt
		reason = levelReason(res.Level)
		c.setReg(in.Rd, complete, reason)
		c.Loads++
		c.LoadsByLvl[res.Level]++
	case isa.KindStore:
		c.H.Access(rec.PC, rec.Addr, true, ready)
		complete = ready + 1
		c.storeReady[lineAddr] = complete
		c.Stores++
	case isa.KindCmp:
		complete = ready + c.Cfg.LatALU
		c.flagsReady = complete
	case isa.KindBranch:
		c.Branches++
		complete = ready + 1
		if c.BP.Predict(rec.PC, rec.Taken) {
			// The flush is felt when the branch resolves at execute.
			if fr := complete + c.Cfg.MispredictPenalty; fr > c.fetchReady {
				c.fetchReady = fr
			}
		}
	case isa.KindJump, isa.KindHalt, isa.KindNop:
		complete = ready + 1
	case isa.KindMul:
		complete = ready + c.Cfg.LatMul
		c.setReg(in.Rd, complete, stats.StallOther)
	case isa.KindDiv:
		complete = ready + c.Cfg.LatDiv
		c.setReg(in.Rd, complete, stats.StallOther)
	case isa.KindFPU:
		complete = ready + c.Cfg.LatFPU
		c.setReg(in.Rd, complete, stats.StallOther)
	default:
		complete = ready + c.Cfg.LatALU
		c.setReg(in.Rd, complete, stats.StallOther)
	}

	// Commit: in order, Width per cycle, after completion.
	cSlot := c.commitSlot + 1
	if cs := (complete + 1) * int64(c.Cfg.Width); cs > cSlot {
		// The commit gap is attributed to whatever this instruction
		// waited on (its completion dominates the commit stream).
		c.Stack.Add(reason, float64(cs-cSlot)/float64(c.Cfg.Width))
		cSlot = cs
	}
	c.Stack.Add(stats.StallBase, 1/float64(c.Cfg.Width))
	c.commitSlot = cSlot
	commitTime := c.cycleOf(cSlot)

	c.rob.push(commitTime)
	if in.IsMem() {
		c.lsq.push(commitTime)
	}
	c.rs = append(c.rs, ready)
	c.Instrs++
	c.Stack.Instrs++

	if c.Tracer != nil {
		c.Tracer.Emit(trace.Event{Kind: trace.KindIssue, Seq: rec.Seq, PC: rec.PC,
			Cycle: ready, Text: in.String(), Arg: dSlot % int64(c.Cfg.Width)})
		c.Tracer.Emit(trace.Event{Kind: trace.KindComplete, Seq: rec.Seq, PC: rec.PC,
			Cycle: complete, Text: "commit"})
	}
}

// ring is a fixed-capacity int64 FIFO: the ROB and LSQ occupancy FIFOs
// are bounded by their configured sizes, so a ring keeps the dispatch
// path allocation-free (append+reslice-front churns the backing array
// with a fresh allocation every capacity-filling wraparound).
type ring struct {
	buf  []int64
	head int
	len  int
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{buf: make([]int64, capacity)}
}

func (r *ring) push(v int64) {
	if r.len == len(r.buf) {
		panic("ooo: ring overflow")
	}
	r.buf[(r.head+r.len)%len(r.buf)] = v
	r.len++
}

func (r *ring) pop() int64 {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.len--
	return v
}

// pruneRS drops reservation-station entries that issued at or before at.
func (c *Core) pruneRS(at int64) {
	keep := c.rs[:0]
	for _, t := range c.rs {
		if t > at {
			keep = append(keep, t)
		}
	}
	c.rs = keep
}

func (c *Core) setReg(r isa.Reg, ready int64, reason stats.StallReason) {
	if r == isa.R0 {
		return
	}
	c.regReady[r] = ready
	c.regReason[r] = reason
}

// Now returns the core's current commit-cursor cycle; co-simulation
// drivers use it to keep cores loosely synchronized in simulated time.
func (c *Core) Now() int64 { return c.cycleOf(c.commitSlot) }

// Cycles returns cycles elapsed in the measurement window.
func (c *Core) Cycles() int64 { return c.cycleOf(c.commitSlot) - c.startCycle }

// CPI returns cycles per committed instruction.
func (c *Core) CPI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Cycles()) / float64(c.Instrs)
}

// IPC returns instructions per cycle.
func (c *Core) IPC() float64 {
	if cy := c.Cycles(); cy > 0 {
		return float64(c.Instrs) / float64(cy)
	}
	return 0
}

// NormalizedStack rescales the CPI stack to sum to the measured CPI.
func (c *Core) NormalizedStack() stats.CPIStack {
	s := c.Stack
	sum := 0.0
	for _, v := range s.Cycles {
		sum += v
	}
	if sum > 0 {
		scale := float64(c.Cycles()) / sum
		for i := range s.Cycles {
			s.Cycles[i] *= scale
		}
	}
	return s
}

// RunBatch issues rows [lo, hi) of a shared decoded batch through the
// core — bit-identical to issuing the same records one by one from a
// lockstep emulator (each row is copied into the one DynInstr Issue
// consumes), minus the per-instruction decode.
func (c *Core) RunBatch(b *stream.DecodedBatch, lo, hi int) {
	// The scratch record lives on the core, not the stack: Issue's
	// receiver-escape would otherwise heap-allocate it every call.
	rec := &c.batchRec
	for i := lo; i < hi; i++ {
		b.Row(i, rec)
		c.Issue(rec)
	}
}
