package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/energy"
	"repro/internal/imp"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/svr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Machine is one runnable machine organization: the timing back end of
// a workload instance, and the only way a core is built and driven. A
// machine never executes the program to time it: the cohort walk (every
// grid cell, and Simulate) steps machines over the decoded rows of each
// window's recording, and Step records privately, a bounded quantum at a
// time, for callers that advance one machine by hand (the multi-core
// experiment, the trace and timeline tools, the paper walkthrough). The
// machine's own emulator only fast-forwards, captures checkpoints and
// marks where the next recording starts.
type Machine interface {
	// Step times the next n instructions of the program, returning
	// false if it ended before all n issued.
	Step(n uint64) bool
	// SetTracer attaches t (nil detaches) to the core and, for SVR, to
	// its engine: every event Step or StepBatch emits from then on
	// reaches t.
	SetTracer(t trace.Tracer)
	// StepBatch issues rows [lo, hi) of a decoded window through the
	// timing models: the cohort walk's lockstep entry point.
	StepBatch(b *stream.DecodedBatch, lo, hi int)
	// Instrs returns instructions committed since the last ResetStats.
	Instrs() uint64
	// Now returns the current simulated cycle (issue-cursor time), used
	// to keep co-simulated machines loosely synchronized.
	Now() int64
	// ResetStats zeroes measurement state after warmup; microarchitectural
	// state (predictors, cache contents) is preserved. It is a single
	// Registry.Reset: every component registered its counters at
	// construction.
	ResetStats()
	// Collect assembles the Result of the window since the last ResetStats.
	Collect() Result
	// Registry exposes the machine-wide metrics registry.
	Registry() *metrics.Registry
	// Stack returns the core's cumulative CPI stack (since the last
	// ResetStats); the interval sampler diffs successive reads.
	Stack() stats.CPIStack
	// FastForward functionally executes up to n instructions on the
	// architectural emulator — no timing models run, no cycles pass.
	// With warm set, cache/TLB/prefetch-tag/branch-predictor state is
	// functionally warmed alongside. Reports false if the program ended
	// before all n executed.
	FastForward(n uint64, warm bool) bool
	// Checkpoint captures the machine's resumable state (architectural
	// registers plus a COW memory clone, and warmed microarchitectural
	// snapshots after a warmed fast-forward) for NewMachineFrom and
	// Restore. Timing state (MSHRs, walkers, DRAM, core pipeline) is
	// not captured.
	Checkpoint() *Checkpoint
	// Restore moves the machine to ck, as if it had fast-forwarded
	// there: it adopts ck's registers, memory image and any warmed
	// cache, TLB, prefetch-tag and predictor state, and keeps its own
	// timing state and prefetcher tables. It is how every region of a
	// sampled schedule is entered.
	Restore(ck *Checkpoint)
	// base exposes the state every kind shares, which the walk positions
	// between windows.
	base() *machineBase
}

// NewMachine builds the configured machine with a private memory
// hierarchy over the given instance. The instance's memory is mutated by
// the run; callers reusing an instance must Clone it first.
func NewMachine(cfg Config, inst *workloads.Instance) (Machine, error) {
	return newMachine(cfg, inst, nil)
}

// NewMachineShared builds the configured machine with a private cache
// hierarchy on a shared DRAM channel (the §VI-E multi-core setup).
func NewMachineShared(cfg Config, inst *workloads.Instance, ch *dram.Channel) (Machine, error) {
	return newMachine(cfg, inst, ch)
}

// newMachine builds cfg's kind over a private hierarchy, on ch when it
// is non-nil. The kind is checked before anything is built.
func newMachine(cfg Config, inst *workloads.Instance, ch *dram.Channel) (Machine, error) {
	var build func(Config, *workloads.Instance, *cache.Hierarchy) Machine
	switch cfg.Core {
	case InO, IMP, SVR:
		build = newInOrderMachine
	case OoO:
		build = newOoOMachine
	default:
		return nil, fmt.Errorf("sim: no machine for core kind %d", cfg.Core)
	}
	if ch == nil {
		ch = dram.New(cfg.Hier.DRAM)
	}
	return build(cfg, inst, cache.NewHierarchyShared(cfg.Hier, ch)), nil
}

// readsArch reports whether a core kind's timing models read more than
// the DynInstr records: architectural registers, flags or data memory at
// the retire point (the IMP prefetcher chasing indirections, SVR's value
// scavenging). Such machines time each window through a private
// stream.ArchView over their own memory image, advanced past every row
// before the row issues.
func readsArch(kind CoreKind) bool { return kind == IMP || kind == SVR }

// Simulate drives a machine through the standard warmup → reset →
// measure → collect sequence shared by every experiment. With
// Params.SampleEvery set it also records the interval time series; with
// Params.FastForward or multi-region Params it runs the region schedule
// (fast-forward → detailed window, repeated) and aggregates. It is the
// walk a cohort of one takes, over private recordings and a private
// chain of region starts instead of the artifact store's: the machine
// fast-forwards to its first region start itself, and each later start
// is advanced from the previous one on a throwaway machine, as
// cachedStart does.
func Simulate(m Machine, p Params) Result { return simulate(m, p, false) }

// simulate is Simulate; with atFirst the machine is already at its first
// region start (restored from a post-fast-forward checkpoint), so the
// first fast-forward is skipped.
func simulate(m Machine, p Params, atFirst bool) Result {
	w := &walk{p: p, ms: []Machine{m}, record: func(src *machineBase) *stream.Recording {
		return recordFrom(src, p.Warmup+p.Measure)
	}, next: func(cfg Config, prev *Checkpoint, _ int) *Checkpoint {
		return advance(cfg, prev, p.Warmup+p.Measure+p.FastForward, p.warmGaps())
	}}
	if p.chained() {
		if !atFirst {
			m.FastForward(p.FastForward, p.warmGaps())
		}
		w.at = []*Checkpoint{m.Checkpoint()}
	}
	return w.run()[0]
}

// machineBase is the state every machine kind shares: the workload
// instance, the private hierarchy, the functional emulator and the
// current window's architectural view.
type machineBase struct {
	cfg  Config
	inst *workloads.Instance
	h    *cache.Hierarchy
	bp   *bpred.Predictor // the core's predictor, warmed and checkpointed with the caches
	cpu  *emu.CPU         // fast-forwards, captures checkpoints, marks where recordings start
	eng  *svr.Engine      // non-nil only for SVR; reads through the window's view
	pf   *imp.Prefetcher  // non-nil only for IMP; reads inst.Mem directly

	// owns marks a private image, which the machine carries through a
	// window: kinds that read architectural state advance view over
	// inst.Mem, stream-pure kinds apply the window's stores to it (Step
	// carries it on to the next). Cohort members of a stream-pure kind
	// share each region start's frozen image, and own and write nothing.
	view *stream.ArchView
	owns bool

	warmed bool                // a warmed fast-forward ran; Checkpoint snapshots hierarchy state
	warmer hierWarmer          // FastForward's emu.Warmer over h and bp, kept here so a call allocates none
	rows   stream.DecodedBatch // Step's chunk buffer
}

func newMachineBase(cfg Config, inst *workloads.Instance, h *cache.Hierarchy, bp *bpred.Predictor) machineBase {
	return machineBase{cfg: cfg, inst: inst, h: h, bp: bp, cpu: emu.New(inst.Prog, inst.Mem),
		warmer: hierWarmer{h: h, bp: bp}, owns: true}
}

func (b *machineBase) base() *machineBase          { return b }
func (b *machineBase) Registry() *metrics.Registry { return b.h.Reg }
func (b *machineBase) ResetStats()                 { b.h.Reg.Reset() }

// openWindow positions the back end at rec's start: kinds that read
// architectural state get a fresh view over their own image, seeded with
// the window's start registers and flags, and the SVR engine reads
// through it.
func (b *machineBase) openWindow(rec *stream.Recording) {
	if !readsArch(b.cfg.Core) {
		return
	}
	b.view = stream.NewArchView(rec, b.inst.Mem)
	if b.eng != nil {
		b.eng.Arch = b.view
	}
}

// closeWindow moves the emulator to rec's end state: registers, flags,
// PC and instruction count from the recording, the memory image already
// advanced by the view or the applied stores.
func (b *machineBase) closeWindow(rec *stream.Recording) { b.cpu.LoadArch(rec.End) }

// carry applies the stores of rows [lo, hi) to a stream-pure machine's
// private image.
func (b *machineBase) carry(rows *stream.DecodedBatch, lo, hi int) {
	if b.owns {
		rows.ApplyStores(b.inst.Mem, lo, hi)
	}
}

// stepQuantum caps the instructions one private recording of Step
// holds, so a caller's n never sizes a buffer.
const stepQuantum = 1 << 16

// step implements Step for every kind: the next n instructions are
// recorded privately, at most stepQuantum at a time, and each recording
// is issued as one window.
func (b *machineBase) step(m Machine, n uint64) bool {
	for n > 0 {
		q := min(n, stepQuantum)
		rec := recordFrom(b, q)
		b.openWindow(rec)
		src := stream.NewReplay(rec)
		for b.rows.Fill(src, cohortChunkRows) > 0 {
			m.StepBatch(&b.rows, 0, b.rows.N)
		}
		src.Recycle()
		b.closeWindow(rec)
		if rec.N < q {
			return false
		}
		n -= q
	}
	return true
}

// inOrderMachine is the in-order family: the bare baseline core, and the
// same core with the IMP prefetcher or the SVR engine as its companion.
type inOrderMachine struct {
	machineBase
	core *inorder.Core
}

func newInOrderMachine(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine {
	core := inorder.New(cfg.InO, h)
	m := &inOrderMachine{machineBase: newMachineBase(cfg, inst, h, core.BP), core: core}
	switch cfg.Core {
	case IMP:
		m.pf = imp.New(cfg.IMP, h, inst.Mem)
		core.Companion = m.pf
	case SVR:
		m.eng = svr.New(cfg.SVR, h, nil) // reads through each window's view
		core.Companion = m.eng
	}
	return m
}

func (m *inOrderMachine) Step(n uint64) bool { return m.step(m, n) }

func (m *inOrderMachine) SetTracer(t trace.Tracer) {
	m.core.Tracer = t
	if m.eng != nil {
		m.eng.Tracer = t
	}
}

// StepBatch issues rows [lo, hi). With a view (IMP, SVR) each row's
// architectural effects are applied before the row issues, so the
// companion observes post-retire state exactly as behind a live
// emulator.
func (m *inOrderMachine) StepBatch(b *stream.DecodedBatch, lo, hi int) {
	if m.view != nil {
		m.core.RunBatchView(b, lo, hi, m.view)
		return
	}
	m.core.RunBatch(b, lo, hi)
	m.carry(b, lo, hi)
}

func (m *inOrderMachine) Instrs() uint64        { return m.core.Instrs }
func (m *inOrderMachine) Now() int64            { return m.core.Now() }
func (m *inOrderMachine) Stack() stats.CPIStack { return m.core.Stack }

func (m *inOrderMachine) Collect() Result {
	res := Result{Workload: m.inst.Name, Label: m.cfg.Label, Metrics: m.h.Reg.Snapshot()}
	res.fillCommon(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(), m.h)
	res.ExtraSlots = m.core.ExtraSlots
	var scalars int64
	if m.eng != nil {
		res.SVRStats = m.eng.Stats
		scalars = m.eng.Stats.Scalars
	}
	res.Energy = energy.Estimate(energy.DefaultParams(), energy.Activity{
		Core: energy.InOrder, Cycles: m.core.Cycles(), Instrs: m.core.Instrs,
		SVRScalars: scalars,
		L1Accesses: m.h.L1D.Accesses, L2Accesses: m.h.L2.Accesses, DRAMLines: m.h.DRAM.Lines,
	})
	return res
}

// oooMachine is the out-of-order comparison core.
type oooMachine struct {
	machineBase
	core *ooo.Core
}

func newOoOMachine(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine {
	core := ooo.New(cfg.OoO, h)
	return &oooMachine{machineBase: newMachineBase(cfg, inst, h, core.BP), core: core}
}

func (m *oooMachine) Step(n uint64) bool       { return m.step(m, n) }
func (m *oooMachine) SetTracer(t trace.Tracer) { m.core.Tracer = t }

// StepBatch issues rows [lo, hi) (see the in-order machine's StepBatch).
func (m *oooMachine) StepBatch(b *stream.DecodedBatch, lo, hi int) {
	m.core.RunBatch(b, lo, hi)
	m.carry(b, lo, hi)
}

func (m *oooMachine) Instrs() uint64        { return m.core.Instrs }
func (m *oooMachine) Now() int64            { return m.core.Now() }
func (m *oooMachine) Stack() stats.CPIStack { return m.core.Stack }

func (m *oooMachine) Collect() Result {
	res := Result{Workload: m.inst.Name, Label: m.cfg.Label, Metrics: m.h.Reg.Snapshot()}
	res.fillCommon(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(), m.h)
	res.Energy = energy.Estimate(energy.DefaultParams(), energy.Activity{
		Core: energy.OutOfOrder, Cycles: m.core.Cycles(), Instrs: m.core.Instrs,
		L1Accesses: m.h.L1D.Accesses, L2Accesses: m.h.L2.Accesses, DRAMLines: m.h.DRAM.Lines,
	})
	return res
}
