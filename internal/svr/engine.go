package svr

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Stats aggregates engine activity for tests, the energy model and the
// evaluation harness.
type Stats struct {
	Rounds       int64 // PRM rounds entered
	SVIs         int64 // scalar-vector instructions generated
	Scalars      int64 // transient scalar copies issued
	Timeouts     int64 // rounds ended by the 256-instruction timeout
	NestedAborts int64 // PRM aborts due to inner-loop detection
	Retargets    int64 // HSLR retargets (independent loops / new phases)
	ChainStarts  int64 // extra chains started inside a round (unrolled)
	MaskedLanes  int64 // lanes masked off by control-flow divergence
	Bans         int64 // times the accuracy monitor disabled SVR
	SkippedLIL   int64 // SVIs suppressed past the last indirect load
	HeadLIL      int64 // rounds that recorded the head itself as LIL
	PredZero     int64 // rounds skipped because the predictor said 0
}

// Add returns the field-wise sum s + o, for aggregating the stats of
// multiple measurement windows.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Rounds:       s.Rounds + o.Rounds,
		SVIs:         s.SVIs + o.SVIs,
		Scalars:      s.Scalars + o.Scalars,
		Timeouts:     s.Timeouts + o.Timeouts,
		NestedAborts: s.NestedAborts + o.NestedAborts,
		Retargets:    s.Retargets + o.Retargets,
		ChainStarts:  s.ChainStarts + o.ChainStarts,
		MaskedLanes:  s.MaskedLanes + o.MaskedLanes,
		Bans:         s.Bans + o.Bans,
		SkippedLIL:   s.SkippedLIL + o.SkippedLIL,
		HeadLIL:      s.HeadLIL + o.HeadLIL,
		PredZero:     s.PredZero + o.PredZero,
	}
}

// Engine is the SVR microarchitecture state. It implements
// inorder.Companion.
type Engine struct {
	Opt Options
	H   *cache.Hierarchy
	// Arch is the architectural state the engine scavenges values from:
	// each window's stream.ArchView in a machine, or a live emulator in
	// the lockstep reference tests. Both expose identical post-retire
	// values, so the engine is agnostic.
	Arch   stream.ArchState
	Tracer trace.Tracer // optional runahead event tracing

	SD *StrideDetector
	RF *RegFile
	LB *LoopBound
	LC LastCompare

	// Piggyback-runahead round state.
	inPRM         bool
	hslrPC        int // persists across rounds; -1 when unset
	mask          []bool
	prmInstr      int
	headStartAddr uint64
	headLP        uint64
	lilOffset     int  // round offset of the last vectorized dependent load
	sawDepLoad    bool // a tainted load occurred this round (even if suppressed)
	stopSVI       bool

	// Speculative flags state for vectorized compares.
	flagsVec   bool
	laneFlags  []int
	laneFValid []bool
	laneFReady []int64

	mon monitor

	scratchA, scratchB []laneOp

	Stats Stats

	fillDist *metrics.Histogram // SVI lane issue-to-fill distance
}

// New builds an engine attached to the given hierarchy and
// architectural-state view: the replay-backed stream.ArchView a machine
// times each window through (nil when the machine sets Arch per
// window), or a live emu.CPU in the lockstep reference tests. Options
// are normalized (see Options.Normalize).
func New(opt Options, h *cache.Hierarchy, arch stream.ArchState) *Engine {
	opt = opt.Normalize()
	e := &Engine{
		Opt:        opt,
		H:          h,
		Arch:       arch,
		SD:         NewStrideDetector(opt.SDEntries),
		RF:         NewRegFile(opt.SRFRegs, opt.VectorLen, opt.Recycle),
		LB:         NewLoopBound(opt.LBDSize),
		hslrPC:     -1,
		mask:       make([]bool, opt.VectorLen),
		laneFlags:  make([]int, opt.VectorLen),
		laneFValid: make([]bool, opt.VectorLen),
		laneFReady: make([]int64, opt.VectorLen),
		scratchA:   make([]laneOp, opt.VectorLen),
		scratchB:   make([]laneOp, opt.VectorLen),
	}
	e.register(h.Reg)
	return e
}

// register publishes the engine's activity counters and hooks the
// accuracy monitor's re-baseline into the registry reset: at a window
// boundary the monitor must re-read the (just-zeroed) prefetch tracker
// stats, or the first tick of the new window would see a huge negative
// delta. The ban state itself persists across resets, as before.
func (e *Engine) register(r *metrics.Registry) {
	r.Int64("svr.rounds", "PRM rounds entered", &e.Stats.Rounds)
	r.Int64("svr.svis", "scalar-vector instructions generated", &e.Stats.SVIs)
	r.Int64("svr.scalars", "transient scalar copies issued", &e.Stats.Scalars)
	r.Int64("svr.timeouts", "rounds ended by the instruction timeout", &e.Stats.Timeouts)
	r.Int64("svr.nested_aborts", "PRM aborts due to inner-loop detection", &e.Stats.NestedAborts)
	r.Int64("svr.retargets", "HSLR retargets", &e.Stats.Retargets)
	r.Int64("svr.chain_starts", "extra chains started inside a round", &e.Stats.ChainStarts)
	r.Int64("svr.masked_lanes", "lanes masked off by control-flow divergence", &e.Stats.MaskedLanes)
	r.Int64("svr.bans", "times the accuracy monitor disabled SVR", &e.Stats.Bans)
	r.Int64("svr.skipped_lil", "SVIs suppressed past the last indirect load", &e.Stats.SkippedLIL)
	r.Int64("svr.head_lil", "rounds that recorded the head itself as LIL", &e.Stats.HeadLIL)
	r.Int64("svr.pred_zero", "rounds skipped because the predictor said 0", &e.Stats.PredZero)
	r.GaugeFunc("svr.banned", "accuracy-monitor ban state (1 = SVR disabled)", func() int64 {
		if e.mon.banned {
			return 1
		}
		return 0
	})
	e.fillDist = r.NewHistogram("lat.svr.fill", "SVI lane issue-to-fill distance (cycles)")
	r.OnReset(func() {
		st := e.H.Tracker.Stats[cache.OriginSVR]
		e.mon.baseUsed, e.mon.baseEvicted = st.Used, st.EvictedUnused
	})
}

// Banned reports whether the accuracy monitor currently disables SVR.
func (e *Engine) Banned() bool { return e.mon.banned }

// InPRM reports whether a piggyback-runahead round is active (tests).
func (e *Engine) InPRM() bool { return e.inPRM }

// slotsFor converts a number of transient scalars into consumed issue
// slots, honoring the Fig 16 scalars-per-slot knob.
func (e *Engine) slotsFor(scalars int) int64 {
	if scalars == 0 {
		return 0
	}
	sps := e.Opt.ScalarsPerSlot
	if sps < 1 {
		sps = 1
	}
	return int64((scalars + sps - 1) / sps)
}

// laneStart returns the cycle lane k of an SVI can begin, given the SVI
// started issuing at issueAt: lanes stream through the issue stage at
// Width*ScalarsPerSlot per cycle.
func (e *Engine) laneStart(issueAt int64, k int) int64 {
	perCycle := e.Opt.Width * e.Opt.ScalarsPerSlot
	if perCycle < 1 {
		perCycle = 1
	}
	return issueAt + int64(k/perCycle)
}

// OnIssue is the Companion hook: called by the in-order core after every
// issued instruction.
func (e *Engine) OnIssue(rec *emu.DynInstr, issueAt int64, _ cache.Level) int64 {
	if e.Opt.MonitorAccuracy {
		e.mon.tick(rec.Seq, issueAt, e)
	}

	if e.inPRM {
		e.prmInstr++
		if e.prmInstr > e.Opt.PRMTimeout {
			e.Stats.Timeouts++
			e.terminate(issueAt)
		} else if !e.stopSVI {
			// LIL (§IV-A4): past the learned offset of the final
			// dependent load in the chain, stop generating SVIs — the
			// tail of the iteration computes on fetched data and has
			// nothing left to prefetch.
			if sd := e.SD.Lookup(e.hslrPC); sd != nil && sd.LILConf >= 2 &&
				e.prmInstr > int(sd.LIL) {
				e.stopSVI = true
			}
		}
	}

	switch rec.Instr.Kind() {
	case isa.KindLoad:
		return e.onLoad(rec, issueAt)
	case isa.KindStore:
		if e.inPRM {
			return e.genSVI(rec, issueAt)
		}
	case isa.KindCmp:
		e.onCmp(rec, issueAt)
	case isa.KindBranch:
		return e.onBranch(rec, issueAt)
	default:
		if e.inPRM {
			return e.genSVI(rec, issueAt)
		}
		// Outside PRM the taint tracker is clear; nothing to do.
	}
	return 0
}

// onCmp records the LC register and, inside PRM, vectorizes tainted
// compares into per-lane flags.
func (e *Engine) onCmp(rec *emu.DynInstr, issueAt int64) {
	in := rec.Instr
	e.LC = LastCompare{
		Valid: true, PC: rec.PC,
		ValA: rec.SrcA, ValB: rec.SrcB,
		RegA: in.Ra, RegB: in.Rb,
		BImm: in.Op == isa.OpCmpI,
	}
	if !e.inPRM {
		return
	}
	aVec, aOK := e.RF.SourceVector(in.Ra, e.prmInstr)
	var bVec *SRFReg
	bOK := false
	if in.Op == isa.OpCmp {
		bVec, bOK = e.RF.SourceVector(in.Rb, e.prmInstr)
	}
	if !aOK && !bOK {
		// Untainted compare overwrites the speculative flags.
		if e.RF.TaintedUnmapped(in.Ra) || (in.Op == isa.OpCmp && e.RF.TaintedUnmapped(in.Rb)) {
			e.flagsVec = false
			return
		}
		e.flagsVec = false
		return
	}
	if e.stopSVI {
		e.flagsVec = false
		return
	}
	// Vectorize the compare into lane flags.
	e.flagsVec = true
	for i := 0; i < e.Opt.VectorLen; i++ {
		e.laneFValid[i] = false
		if !e.mask[i] {
			continue
		}
		a, aReady, ok := laneOperand(aVec, aOK, rec.SrcA, i)
		if !ok {
			continue
		}
		b := rec.SrcB
		var bReady int64
		if in.Op == isa.OpCmp {
			var okB bool
			b, bReady, okB = laneOperand(bVec, bOK, rec.SrcB, i)
			if !okB {
				continue
			}
		}
		e.laneFlags[i] = emu.CmpSign(a, b)
		e.laneFValid[i] = true
		e.laneFReady[i] = max(aReady, bReady)
	}
	e.Stats.SVIs++
}

// onBranch trains the LBD on backwards conditional-taken branches and
// applies control-flow divergence masking (§IV-B1) for vectorized flags.
func (e *Engine) onBranch(rec *emu.DynInstr, issueAt int64) int64 {
	in := rec.Instr
	// LBD training: a taken branch backwards to (or before) the HSLR
	// load indicates the loop bound compare.
	if rec.Taken && int(in.Imm) <= rec.PC && e.hslrPC >= 0 && int(in.Imm) <= e.hslrPC {
		e.LB.Entry(e.hslrPC).Train(e.LC)
	}
	if !e.inPRM || !e.flagsVec {
		return 0
	}
	// Divergence masking: lanes that would take a different path from
	// the real instruction stream are disabled for the rest of the round.
	scalars := 0
	for i := 0; i < e.Opt.VectorLen; i++ {
		if !e.mask[i] {
			continue
		}
		scalars++
		if !e.laneFValid[i] {
			e.mask[i] = false
			e.Stats.MaskedLanes++
			continue
		}
		if emu.BranchTaken(in.Op, e.laneFlags[i]) != rec.Taken {
			e.mask[i] = false
			e.Stats.MaskedLanes++
		}
	}
	e.Stats.SVIs++
	e.Stats.Scalars += int64(scalars)
	if e.Tracer != nil {
		active := 0
		for _, m := range e.mask {
			if m {
				active++
			}
		}
		e.Tracer.Emit(trace.Event{Kind: trace.KindMask, Seq: rec.Seq, PC: rec.PC,
			Cycle: issueAt,
			Text:  fmt.Sprintf("taken=%v lanes-live=%d", rec.Taken, active), Arg: int64(active)})
	}
	return e.slotsFor(scalars)
}

// onLoad is the core of SVR: stride detection, PRM entry/termination,
// multiple-chain handling and dependent-load vectorization.
func (e *Engine) onLoad(rec *emu.DynInstr, issueAt int64) int64 {
	in := rec.Instr
	sd, outcome := e.SD.Observe(rec.PC, rec.Addr)

	switch outcome {
	case ObserveDiscontinuity:
		if lb := e.LB.Lookup(rec.PC); lb != nil {
			lb.ScoreTournament(sd.Iteration)
		}
		sd.UpdateEWMA()
	case ObserveContinuing:
		if sd.Iteration >= e.Opt.EWMACap {
			sd.UpdateEWMA()
		}
	}

	// Dependent (indirect) load inside a chain takes precedence over
	// stride handling: its base register is tainted.
	if e.inPRM {
		if _, ok := e.RF.SourceVector(in.Ra, e.prmInstr); ok || e.RF.TaintedUnmapped(in.Ra) {
			return e.genSVI(rec, issueAt)
		}
	}

	if !sd.Striding(e.Opt.StrideConfMin) {
		return 0
	}

	if e.inPRM {
		if rec.PC == e.hslrPC {
			// One full iteration of the chain: terminate, wait.
			e.terminate(issueAt)
			e.SD.ClearSeenExcept(rec.PC)
			return 0
		}
		if sd.InWaitRange(rec.Addr) {
			return 0
		}
		if !sd.Seen {
			// Unrolled / sibling chain: vectorize it too.
			sd.Seen = true
			e.Stats.ChainStarts++
			return e.startChain(rec, sd, issueAt)
		}
		// Seen twice without revisiting the HSLR: inner loop. Abort and
		// retarget to the inner striding load.
		e.Stats.NestedAborts++
		if e.Tracer != nil {
			e.Tracer.Emit(trace.Event{Kind: trace.KindRetarget, Seq: rec.Seq, PC: rec.PC,
				Cycle: issueAt,
				Text:  fmt.Sprintf("nested abort: HSLR %d -> %d", e.hslrPC, rec.PC)})
		}
		e.abortRound()
		e.hslrPC = rec.PC
		e.SD.ClearSeenExcept(rec.PC)
		return e.enterPRM(rec, sd, issueAt)
	}

	// Normal or waiting mode.
	if rec.PC == e.hslrPC || e.hslrPC < 0 {
		e.SD.ClearSeenExcept(rec.PC)
		e.hslrPC = rec.PC
		if e.mon.banned || sd.InWaitRange(rec.Addr) {
			return 0
		}
		sd.Waiting = false
		return e.enterPRM(rec, sd, issueAt)
	}
	if sd.InWaitRange(rec.Addr) {
		return 0
	}
	if !sd.Seen {
		sd.Seen = true
		return 0
	}
	// Second sighting without passing the HSLR: retarget (independent
	// loop or new program phase).
	e.Stats.Retargets++
	if e.Tracer != nil {
		e.Tracer.Emit(trace.Event{Kind: trace.KindRetarget, Seq: rec.Seq, PC: rec.PC,
			Cycle: issueAt,
			Text:  fmt.Sprintf("retarget: HSLR %d -> %d", e.hslrPC, rec.PC)})
	}
	e.hslrPC = rec.PC
	e.SD.ClearSeenExcept(rec.PC)
	if e.mon.banned {
		return 0
	}
	sd.Waiting = false
	return e.enterPRM(rec, sd, issueAt)
}

// enterPRM begins a round of piggyback runahead headed by the striding
// load in rec.
func (e *Engine) enterPRM(rec *emu.DynInstr, sd *SDEntry, issueAt int64) int64 {
	lanes := e.predictLanes(sd)
	if lanes <= 0 {
		e.Stats.PredZero++
		return 0
	}
	if lanes > e.Opt.VectorLen {
		lanes = e.Opt.VectorLen
	}
	e.inPRM = true
	e.prmInstr = 0
	e.stopSVI = false
	e.sawDepLoad = false
	e.lilOffset = -1
	e.flagsVec = false
	e.RF.Reset()
	for i := range e.mask {
		e.mask[i] = i < lanes
	}
	e.headStartAddr = rec.Addr
	e.Stats.Rounds++
	if e.Tracer != nil {
		e.Tracer.Emit(trace.Event{Kind: trace.KindPRMEnter, Seq: rec.Seq, PC: rec.PC,
			Cycle: issueAt,
			Text:  fmt.Sprintf("head=%d lanes=%d stride=%d", rec.PC, lanes, sd.Stride),
			Arg:   int64(lanes)})
	}

	slots := e.Opt.RegCopyCycles * int64(e.Opt.Width) // DVR-checkpoint ablation
	slots += e.vectorizeHead(rec, sd, issueAt, true)
	return slots
}

// startChain vectorizes an additional striding load inside an existing
// round (unrolled loops).
func (e *Engine) startChain(rec *emu.DynInstr, sd *SDEntry, issueAt int64) int64 {
	return e.vectorizeHead(rec, sd, issueAt, false)
}

// vectorizeHead issues the SVI for a striding load: lanes i cover the
// next i+1 iterations along the stride.
func (e *Engine) vectorizeHead(rec *emu.DynInstr, sd *SDEntry, issueAt int64, isHSLR bool) int64 {
	in := rec.Instr
	srf, ok := e.RF.MapDest(in.Rd, e.prmInstr)
	if !ok {
		return 0
	}
	scalars := 0
	last := rec.Addr
	for i := 0; i < e.Opt.VectorLen; i++ {
		srf.Lanes[i].Valid = false
		if !e.mask[i] {
			continue
		}
		addr := rec.Addr + uint64((int64(i)+1)*sd.Stride)
		start := e.laneStart(issueAt, scalars)
		res := e.H.Prefetch(addr, start, cache.OriginSVR)
		if e.fillDist != nil {
			e.fillDist.Observe(res.CompleteAt - start)
		}
		srf.Lanes[i] = Lane{
			Val:   loadValue(e, addr, in.Size),
			Ready: res.CompleteAt,
			Valid: true,
		}
		last = addr
		scalars++
	}
	if e.Opt.WaitingMode {
		sd.SetWaitRange(rec.Addr, last)
	}
	if isHSLR {
		e.headLP = last
	}
	e.Stats.SVIs++
	e.Stats.Scalars += int64(scalars)
	e.traceSVI(rec, issueAt, scalars)
	return e.slotsFor(scalars)
}

// genSVI vectorizes a dependent instruction whose inputs are tainted.
// It also maintains taint hygiene for untainted writes.
func (e *Engine) genSVI(rec *emu.DynInstr, issueAt int64) int64 {
	in := rec.Instr
	var srcBuf [2]isa.Reg
	srcs := in.SrcRegs(srcBuf[:0])

	anyTaint, anyUnmapped := false, false
	for _, r := range srcs {
		t := &e.RF.TT[r]
		if t.Tainted {
			anyTaint = true
			if !t.Mapped {
				anyUnmapped = true
			}
		}
	}
	rd, writes := in.WritesReg()

	if !anyTaint {
		// Not part of the chain: an overwrite kills any stale mapping.
		if writes {
			e.RF.Invalidate(rd)
		}
		return 0
	}
	if in.Kind() == isa.KindLoad {
		e.sawDepLoad = true
	}
	if anyUnmapped || e.stopSVI {
		if e.stopSVI && in.Kind() == isa.KindLoad {
			// A tainted load appearing past the recorded last-indirect-
			// load offset: the LIL is unstable (§IV-A4 footnote), e.g.
			// the round spans a variable-length inner loop. Confidence
			// decays until suppression disengages.
			if sd := e.SD.Lookup(e.hslrPC); sd != nil && sd.LILConf > 0 {
				sd.LILConf--
			}
			e.Stats.SkippedLIL++
		}
		// Cannot vectorize: the destination becomes tainted-unmapped so
		// consumers are blocked too.
		if writes {
			e.RF.Invalidate(rd)
			e.RF.TT[rd] = TTEntry{Tainted: true, Mapped: false}
		}
		return 0
	}

	// Snapshot per-lane operands BEFORE securing the destination: the
	// destination often aliases a source (e.g. shl rV, rV, 3), and
	// MapDest may also recycle a source's SRF entry.
	aVec, aOK := e.RF.SourceVector(in.Ra, e.prmInstr)
	var bVec *SRFReg
	bOK := false
	if len(srcs) == 2 {
		bVec, bOK = e.RF.SourceVector(in.Rb, e.prmInstr)
	}
	aOps := e.scratchA[:e.Opt.VectorLen]
	bOps := e.scratchB[:e.Opt.VectorLen]
	for i := 0; i < e.Opt.VectorLen; i++ {
		aOps[i].val, aOps[i].ready, aOps[i].ok = laneOperand(aVec, aOK, rec.SrcA, i)
		if len(srcs) == 2 {
			bOps[i].val, bOps[i].ready, bOps[i].ok = laneOperand(bVec, bOK, rec.SrcB, i)
		} else {
			bOps[i] = laneOp{val: rec.SrcB, ok: true}
		}
	}
	if !e.Opt.PerLaneForwarding {
		// Scoreboard return counter (§IV-A4): a dependent SVI issues
		// only once ALL scalars of its producer completed, so every lane
		// sees the slowest source lane's ready time.
		var allReady int64
		for i := 0; i < e.Opt.VectorLen; i++ {
			if aOps[i].ok && aOps[i].ready > allReady {
				allReady = aOps[i].ready
			}
			if bOps[i].ok && bOps[i].ready > allReady {
				allReady = bOps[i].ready
			}
		}
		for i := 0; i < e.Opt.VectorLen; i++ {
			aOps[i].ready = allReady
			bOps[i].ready = allReady
		}
	}

	switch in.Kind() {
	case isa.KindStore:
		// Transient stores never write memory; prefetch the target line
		// for ownership instead. Base register is Ra.
		scalars := 0
		for i := 0; i < e.Opt.VectorLen; i++ {
			if !e.mask[i] || !aOps[i].ok {
				continue
			}
			addr := uint64(aOps[i].val + in.Imm)
			e.H.Prefetch(addr, max(e.laneStart(issueAt, scalars), aOps[i].ready), cache.OriginSVR)
			scalars++
		}
		e.Stats.SVIs++
		e.Stats.Scalars += int64(scalars)
		e.traceSVI(rec, issueAt, scalars)
		return e.slotsFor(scalars)

	case isa.KindLoad:
		srf, ok := e.RF.MapDest(in.Rd, e.prmInstr)
		if !ok {
			return 0
		}
		e.lilOffset = e.prmInstr
		scalars := 0
		for i := 0; i < e.Opt.VectorLen; i++ {
			srf.Lanes[i].Valid = false
			if !e.mask[i] || !aOps[i].ok {
				continue
			}
			addr := uint64(aOps[i].val + in.Imm)
			start := max(e.laneStart(issueAt, scalars), aOps[i].ready)
			res := e.H.Prefetch(addr, start, cache.OriginSVR)
			if e.fillDist != nil {
				e.fillDist.Observe(res.CompleteAt - start)
			}
			srf.Lanes[i] = Lane{Val: loadValue(e, addr, in.Size), Ready: res.CompleteAt, Valid: true}
			scalars++
		}
		e.Stats.SVIs++
		e.Stats.Scalars += int64(scalars)
		e.traceSVI(rec, issueAt, scalars)
		return e.slotsFor(scalars)

	default:
		// ALU / FP / immediate op with at least one vector input.
		srf, ok := e.RF.MapDest(rd, e.prmInstr)
		if !ok {
			return 0
		}
		scalars := 0
		for i := 0; i < e.Opt.VectorLen; i++ {
			srf.Lanes[i].Valid = false
			if !e.mask[i] || !aOps[i].ok || !bOps[i].ok {
				continue
			}
			v, pure := emu.EvalALU(in.Op, aOps[i].val, bOps[i].val, in.Imm)
			if !pure {
				continue
			}
			start := max(e.laneStart(issueAt, scalars), max(aOps[i].ready, bOps[i].ready))
			srf.Lanes[i] = Lane{Val: v, Ready: start + aluLatency(in.Kind()), Valid: true}
			scalars++
		}
		e.Stats.SVIs++
		e.Stats.Scalars += int64(scalars)
		e.traceSVI(rec, issueAt, scalars)
		return e.slotsFor(scalars)
	}
}

// aluLatency gives the per-lane execute latency of a transient scalar on
// the shared functional units (matches the main pipeline's latencies).
func aluLatency(k isa.Kind) int64 {
	switch k {
	case isa.KindMul:
		return 3
	case isa.KindDiv:
		return 12
	case isa.KindFPU:
		return 4
	default:
		return 1
	}
}

// laneOp is a snapshotted per-lane operand.
type laneOp struct {
	val   int64
	ready int64
	ok    bool
}

// traceSVI emits an SVI-generation event when tracing is enabled.
func (e *Engine) traceSVI(rec *emu.DynInstr, issueAt int64, scalars int) {
	if e.Tracer != nil && scalars > 0 {
		e.Tracer.Emit(trace.Event{Kind: trace.KindSVI, Seq: rec.Seq, PC: rec.PC,
			Cycle: issueAt,
			Text:  fmt.Sprintf("%s x%d", rec.Instr.String(), scalars), Arg: int64(scalars)})
	}
}

// laneOperand resolves one source operand for lane i: either the
// speculative vector lane or the shared main-thread scalar.
func laneOperand(vec *SRFReg, isVec bool, scalar int64, i int) (val, ready int64, ok bool) {
	if !isVec {
		return scalar, 0, true
	}
	l := vec.Lanes[i]
	if !l.Valid {
		return 0, 0, false
	}
	return l.Val, l.Ready, true
}

// loadValue functionally reads the speculative lane value from the
// architectural memory view (the hardware reads the same bytes out of
// the cache).
func loadValue(e *Engine, addr uint64, size uint8) int64 {
	return int64(e.Arch.ReadMem(addr, size))
}

// predictLanes chooses how many scalars to issue this round (§IV-B2).
func (e *Engine) predictLanes(sd *SDEntry) int {
	n := e.Opt.VectorLen
	lb := e.LB.Entry(sd.PC)

	ewmaPred := func() int {
		// min(EWMA - Iteration, N) when positive, else min(EWMA, N).
		rem := sd.EWMA - float64(sd.Iteration)
		if rem <= 0 {
			rem = sd.EWMA
		}
		if sd.EWMA == 0 {
			return n // no history yet: fetch full length
		}
		return clampLanes(rem, n)
	}
	lbdCV := func() (int, bool) {
		rem, ok := lb.PredictCV(e.Arch.Reg)
		if !ok {
			return 0, false
		}
		return clampLanes(rem, n), true
	}

	switch e.Opt.LoopBound {
	case Maxlength:
		return n
	case EWMAOnly:
		return ewmaPred()
	case LBDWait:
		// DVR Discovery-Mode policy: only predict from an LBD trained
		// this loop visit; otherwise do not runahead yet.
		if lb.FreshTrain {
			if rem, ok := lb.PredictStored(); ok {
				return clampLanes(rem, n)
			}
		}
		return 0
	case LBDMaxlength:
		if lb.FreshTrain {
			if rem, ok := lb.PredictStored(); ok {
				return clampLanes(rem, n)
			}
		}
		return n
	case LBDCV:
		if p, ok := lbdCV(); ok {
			return p
		}
		return n
	default: // Tournament
		ep := ewmaPred()
		lp, lok := lbdCV()
		lb.NotePredictions(float64(ep), float64(lp), sd.Iteration, lok)
		if lok && lb.Tournament >= 2 {
			return lp
		}
		return ep
	}
}

func clampLanes(rem float64, n int) int {
	if rem > float64(n) {
		return n
	}
	if rem < 0 {
		return 0
	}
	return int(rem)
}

// terminate ends the current PRM round: record waiting range and LIL,
// clear the taint tracker (§IV-A5).
func (e *Engine) terminate(at int64) {
	if !e.inPRM {
		return
	}
	if e.Tracer != nil {
		e.Tracer.Emit(trace.Event{Kind: trace.KindPRMExit, PC: e.hslrPC, Cycle: at,
			Text: fmt.Sprintf("head=%d instrs=%d", e.hslrPC, e.prmInstr)})
	}
	if sd := e.SD.Lookup(e.hslrPC); sd != nil {
		if e.Opt.WaitingMode {
			sd.SetWaitRange(e.headStartAddr, e.headLP)
		} else {
			sd.Waiting = false
		}
		// Record the round offset of the final dependent load. A round
		// with no dependent load at all records offset 0 (nothing past
		// the head is worth vectorizing — the SPEC case); a round whose
		// chain was merely suppressed must not update, or suppression
		// would confirm itself.
		off := e.lilOffset
		if off < 0 {
			if e.sawDepLoad {
				off = -1
			} else {
				off = 0
				e.Stats.HeadLIL++
			}
		}
		if off < 0 {
			e.abortRound()
			return
		}
		if off > 0xffff {
			off = 0xffff
		}
		lil := uint16(off)
		switch {
		case sd.LIL == lil:
			if sd.LILConf < 3 {
				sd.LILConf++
			}
		case sd.LILConf > 0:
			sd.LILConf--
		default:
			sd.LIL = lil
			sd.LILConf = 1
		}
	}
	e.abortRound()
}

// abortRound drops all transient state without touching waiting/LIL.
func (e *Engine) abortRound() {
	e.inPRM = false
	e.prmInstr = 0
	e.flagsVec = false
	e.stopSVI = false
	e.sawDepLoad = false
	e.RF.Reset()
}
