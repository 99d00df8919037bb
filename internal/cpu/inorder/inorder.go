// Package inorder models the 3-wide stall-on-use in-order core of
// Table III (configured after the Arm Cortex-A510): in-order issue limited
// by a 32-entry scoreboard, register ready-times for stall-on-use
// semantics, two memory ports, a tournament branch predictor with a
// 10-cycle misprediction penalty, and CPI-stack attribution.
//
// A Companion (the SVR engine, or the IMP prefetcher adapter) can observe
// every issued instruction and consume issue slots of its own — this is
// how piggyback runahead shares the real pipeline.
package inorder

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
	Width             int   // issue width (3)
	Scoreboard        int   // in-flight instruction limit (32)
	MemPorts          int   // load/store issue ports per cycle (2)
	StoreBuffer       int   // store-buffer entries draining to L1 (8)
	MispredictPenalty int64 // cycles (10)

	LatALU, LatMul, LatDiv, LatFPU int64
	BPredTableBits                 uint
}

// DefaultConfig mirrors Table III's in-order column.
func DefaultConfig() Config {
	return Config{
		Width: 3, Scoreboard: 32, MemPorts: 2, StoreBuffer: 8, MispredictPenalty: 10,
		LatALU: 1, LatMul: 3, LatDiv: 12, LatFPU: 4,
		BPredTableBits: 12,
	}
}

// Companion observes issued instructions (SVR engine / IMP adapter).
type Companion interface {
	// OnIssue is called after rec issues at cycle issueAt with the given
	// data-service level (loads only; LevelL1 otherwise). It returns the
	// number of extra issue slots the companion consumed.
	OnIssue(rec *emu.DynInstr, issueAt int64, level cache.Level) (extraSlots int64)
}

type sbEntry struct {
	completeAt int64
	reason     stats.StallReason
}

// Core is the in-order timing model.
type Core struct {
	Cfg       Config
	H         *cache.Hierarchy
	BP        *bpred.Predictor
	Companion Companion
	Tracer    trace.Tracer // optional pipeline event tracing

	slot        int64 // issue-slot cursor (cycle*Width + slot index)
	width       int64 // Cfg.Width, hoisted for the per-issue conversions
	fWidth      float64
	invWidth    float64      // 1/Width, the per-slot CPI-stack increment
	batchRec    emu.DynInstr // scratch row for RunBatch (keeps the loop allocation-free)
	regReady    [isa.NumRegs]int64
	regReason   [isa.NumRegs]stats.StallReason
	flagsReady  int64
	fetchReady  int64 // cycle fetch resumes after a misprediction
	memPortFree []int64
	storeBuf    []int64 // drain-complete time per store-buffer entry
	sb          []sbEntry
	// sbMin is a conservative lower bound on the scoreboard's earliest
	// completion (stale-low is fine): pruning is a guaranteed no-op while
	// sbMin exceeds the prune horizon, which keeps the per-issue
	// compaction scan off the hot path.
	sbMin int64

	startCycle  int64
	maxComplete int64

	// Stats (since last ResetStats).
	Stack      stats.CPIStack
	Instrs     uint64
	Loads      uint64
	Stores     uint64
	Branches   uint64
	LoadsByLvl [3]uint64
	ExtraSlots int64 // slots consumed by the companion
}

// New builds a core over the given memory hierarchy and registers its
// statistics with the hierarchy's metrics registry: the counters reset
// with everything else at the warmup boundary, and the non-counter window
// state (CPI stack, window start cycle) re-baselines via an OnReset hook.
func New(cfg Config, h *cache.Hierarchy) *Core {
	sbuf := cfg.StoreBuffer
	if sbuf <= 0 {
		sbuf = 1
	}
	c := &Core{
		Cfg:         cfg,
		H:           h,
		BP:          bpred.New(cfg.BPredTableBits),
		memPortFree: make([]int64, cfg.MemPorts),
		storeBuf:    make([]int64, sbuf),
		width:       int64(cfg.Width),
		fWidth:      float64(cfg.Width),
		invWidth:    1 / float64(cfg.Width),
		sbMin:       int64(1) << 62,
	}
	r := h.Reg
	r.Uint64("core.instrs", "instructions committed", &c.Instrs)
	r.Uint64("core.loads", "loads issued", &c.Loads)
	r.Uint64("core.stores", "stores issued", &c.Stores)
	r.Uint64("core.branches", "conditional branches issued", &c.Branches)
	r.Uint64("core.loads.l1", "loads served from L1", &c.LoadsByLvl[cache.LevelL1])
	r.Uint64("core.loads.l2", "loads served from L2", &c.LoadsByLvl[cache.LevelL2])
	r.Uint64("core.loads.mem", "loads served from DRAM", &c.LoadsByLvl[cache.LevelMem])
	r.Int64("core.extra_slots", "issue slots consumed by the companion", &c.ExtraSlots)
	r.Int64("bpred.lookups", "branch predictor lookups", &c.BP.Lookups)
	r.Int64("bpred.mispredicts", "branch mispredictions", &c.BP.Mispredict)
	r.OnReset(func() {
		c.Stack = stats.CPIStack{}
		c.startCycle = c.cycleOf(c.slot)
		c.maxComplete = c.startCycle
	})
	return c
}

// cycleOf converts an issue-slot index to a cycle. The default width is
// special-cased so the hot per-issue conversions compile to a
// constant-divisor multiply instead of a hardware divide.
func (c *Core) cycleOf(slot int64) int64 {
	if c.width == 3 {
		return slot / 3
	}
	return slot / int64(c.Cfg.Width)
}

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

// CodeBase is the synthetic address of instruction index 0; instruction
// fetch addresses are CodeBase + 4*pc (fixed 4-byte encoding).
const CodeBase = 0x4000_0000

// Issue runs one dynamic instruction through the pipeline model.
func (c *Core) Issue(rec *emu.DynInstr) {
	in := rec.Instr
	kind := in.Kind() // IsMem/IsBranch below are derived from Kind
	cursor := c.slot
	earliest := c.cycleOf(cursor)
	cause := stats.StallBase

	// Front-end: instruction fetch (free on the L1-I hits that dominate
	// loop execution) and misprediction bubbles.
	if bubble := c.H.FetchInstr(CodeBase+uint64(rec.PC)*4, earliest); bubble > 0 {
		if fr := earliest + bubble; fr > c.fetchReady {
			c.fetchReady = fr
		}
	}
	if c.fetchReady > earliest {
		earliest = c.fetchReady
		cause = stats.StallBranch
	}

	// Stall-on-use: wait for source registers.
	var srcBuf [2]isa.Reg
	for _, r := range in.SrcRegs(srcBuf[:0]) {
		if c.regReady[r] > earliest {
			earliest = c.regReady[r]
			cause = c.regReason[r]
		}
	}
	// Branches read the flags.
	if kind == isa.KindBranch && c.flagsReady > earliest {
		earliest = c.flagsReady
		cause = stats.StallOther
	}

	// Scoreboard: wait for space.
	for len(c.sb) >= c.Cfg.Scoreboard {
		bi := 0
		for i := range c.sb {
			if c.sb[i].completeAt < c.sb[bi].completeAt {
				bi = i
			}
		}
		if e := c.sb[bi]; e.completeAt > earliest {
			earliest = e.completeAt
			cause = e.reason
		}
		c.sb[bi] = c.sb[len(c.sb)-1]
		c.sb = c.sb[:len(c.sb)-1]
	}
	c.pruneScoreboard(earliest)

	// Memory port for loads and stores.
	memPort := -1
	if kind == isa.KindLoad || kind == isa.KindStore {
		for i := range c.memPortFree {
			if memPort < 0 || c.memPortFree[i] < c.memPortFree[memPort] {
				memPort = i
			}
		}
		if c.memPortFree[memPort] > earliest {
			earliest = c.memPortFree[memPort]
			cause = stats.StallOther
		}
	}

	// Claim the issue slot.
	slot := cursor
	if es := earliest * c.width; es > slot {
		// Stalled: attribute the whole gap to the binding constraint.
		// (Division, not multiply-by-reciprocal: the quotient must round
		// identically to the original expression.)
		c.Stack.Add(cause, float64(es-slot)/c.fWidth)
		slot = es
	}
	issueAt := c.cycleOf(slot)
	c.slot = slot + 1
	if memPort >= 0 {
		c.memPortFree[memPort] = issueAt + 1
	}
	c.Stack.Add(stats.StallBase, c.invWidth)

	// Execute.
	complete := issueAt + 1
	reason := stats.StallOther
	level := cache.LevelL1
	switch kind {
	case isa.KindLoad:
		res := c.H.Access(rec.PC, rec.Addr, false, issueAt)
		complete = res.CompleteAt
		level = res.Level
		reason = levelReason(res.Level)
		c.setReg(in.Rd, complete, reason)
		c.Loads++
		c.LoadsByLvl[res.Level]++
	case isa.KindStore:
		// Stores retire into the store buffer and drain to L1 in the
		// background; the core stalls only when the buffer is full.
		slot := 0
		for i := range c.storeBuf {
			if c.storeBuf[i] < c.storeBuf[slot] {
				slot = i
			}
		}
		drainStart := issueAt
		if c.storeBuf[slot] > drainStart {
			// Buffer full: the store (and the in-order stream behind
			// it) waits for the oldest drain.
			c.Stack.Add(stats.StallOther, float64(c.storeBuf[slot]-drainStart))
			drainStart = c.storeBuf[slot]
			c.slot = drainStart * int64(c.Cfg.Width)
			issueAt = drainStart
		}
		res := c.H.Access(rec.PC, rec.Addr, true, drainStart)
		c.storeBuf[slot] = res.CompleteAt
		complete = issueAt + 1
		c.Stores++
	case isa.KindCmp:
		complete = issueAt + c.Cfg.LatALU
		c.flagsReady = complete
	case isa.KindBranch:
		c.Branches++
		if c.BP.Predict(rec.PC, rec.Taken) {
			c.fetchReady = issueAt + 1 + c.Cfg.MispredictPenalty
		}
	case isa.KindJump, isa.KindHalt, isa.KindNop:
		// Single-slot, no destination.
	case isa.KindMul:
		complete = issueAt + c.Cfg.LatMul
		c.setReg(in.Rd, complete, stats.StallOther)
	case isa.KindDiv:
		complete = issueAt + c.Cfg.LatDiv
		c.setReg(in.Rd, complete, stats.StallOther)
	case isa.KindFPU:
		complete = issueAt + c.Cfg.LatFPU
		c.setReg(in.Rd, complete, stats.StallOther)
	default: // ALU
		complete = issueAt + c.Cfg.LatALU
		c.setReg(in.Rd, complete, stats.StallOther)
	}

	c.sb = append(c.sb, sbEntry{completeAt: complete, reason: reason})
	if complete < c.sbMin {
		c.sbMin = complete
	}
	if complete > c.maxComplete {
		c.maxComplete = complete
	}
	c.Instrs++
	c.Stack.Instrs++

	if c.Tracer != nil {
		c.Tracer.Emit(trace.Event{Kind: trace.KindIssue, Seq: rec.Seq, PC: rec.PC,
			Cycle: issueAt, Text: in.String(), Arg: slot % c.width})
		if in.Kind() == isa.KindLoad {
			c.Tracer.Emit(trace.Event{Kind: trace.KindComplete, Seq: rec.Seq, PC: rec.PC,
				Cycle: complete, Text: level.String(), Arg: int64(rec.Addr)})
		}
	}

	if c.Companion != nil {
		if extra := c.Companion.OnIssue(rec, issueAt, level); extra > 0 {
			c.slot += extra
			c.ExtraSlots += extra
		}
	}
}

func (c *Core) setReg(r isa.Reg, ready int64, reason stats.StallReason) {
	if r == isa.R0 {
		return
	}
	c.regReady[r] = ready
	c.regReason[r] = reason
}

func (c *Core) pruneScoreboard(at int64) {
	if c.sbMin > at {
		return // nothing to drop; compaction would be a no-op
	}
	keep := c.sb[:0]
	newMin := int64(1) << 62
	for _, e := range c.sb {
		if e.completeAt > at {
			keep = append(keep, e)
			if e.completeAt < newMin {
				newMin = e.completeAt
			}
		}
	}
	c.sb = keep
	c.sbMin = newMin
}

// Now returns the core's current issue-cursor cycle; the multi-core
// driver uses it to keep cores loosely synchronized in simulated time.
func (c *Core) Now() int64 { return c.cycleOf(c.slot) }

// Cycles returns the cycles elapsed since the last ResetStats, including
// the drain of the last in-flight instructions.
func (c *Core) Cycles() int64 {
	end := c.cycleOf(c.slot)
	if c.maxComplete > end {
		end = c.maxComplete
	}
	return end - c.startCycle
}

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

// NormalizedStack returns the CPI stack rescaled so its components sum to
// the measured CPI (the per-constraint attribution is approximate).
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

// Run pulls up to maxInstr instructions from the source through the
// core, returning the number executed. The source is either a live
// emulator (stream.LiveSource) or a pre-recorded stream replay
// (stream.ReplaySource); the core is agnostic — it consumes DynInstr
// records either way.
func (c *Core) Run(src stream.InstrSource, maxInstr uint64) uint64 {
	var rec emu.DynInstr
	var n uint64
	for n < maxInstr && src.Next(&rec) {
		c.Issue(&rec)
		n++
	}
	return n
}

// RunBatch issues rows [lo, hi) of a shared decoded batch through the
// core: the cohort driver's lockstep entry point. Each row is copied
// into the same DynInstr record Issue consumes from Run, so the timing
// walk is bit-identical to replaying the rows through an InstrSource —
// the batch only removes the per-instruction decode and the interface
// dispatch.
func (c *Core) RunBatch(b *stream.DecodedBatch, lo, hi int) {
	// The scratch record lives on the core, not the stack: Issue's
	// receiver-escape would otherwise heap-allocate it every call.
	rec := &c.batchRec
	for i := lo; i < hi; i++ {
		b.Row(i, rec)
		c.Issue(rec)
	}
}

// RunBatchView is RunBatch for cohort members whose companion reads
// architectural state (the SVR engine, the IMP prefetcher): the
// member's private view advances past each row before the row issues,
// so the companion observes post-retire values exactly as it would
// behind a live emulator.
func (c *Core) RunBatchView(b *stream.DecodedBatch, lo, hi int, v *stream.ArchView) {
	rec := &c.batchRec
	for i := lo; i < hi; i++ {
		b.Row(i, rec)
		v.Advance(rec)
		c.Issue(rec)
	}
}
