package sim

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Checkpoint is a resumable machine image taken after a fast-forward:
// the architectural register state plus a copy-on-write clone of the
// memory, and — when the fast-forward functionally warmed — deep
// snapshots of the cache-hierarchy and branch-predictor state. One
// checkpoint fans out to many cells: every restore clones the frozen
// memory again, so sibling machines mutate memory independently.
// Timing state (MSHRs, walkers, DRAM channel, core pipeline) is never
// part of a checkpoint; a restored machine starts it fresh, exactly as
// a machine that ran the fast-forward in place would.
type Checkpoint struct {
	Workload string

	prog  *isa.Program
	check func(*mem.Memory) error
	mem   *mem.Memory // frozen COW image at the capture point
	arch  emu.ArchState
	hier  *cache.HierarchyState // nil unless warmed
	bp    *bpred.Predictor      // nil unless warmed
}

// Instrs returns the architectural instruction count at capture.
func (ck *Checkpoint) Instrs() uint64 { return ck.arch.Seq }

// Bytes estimates the checkpoint's retained size for cache budgeting.
func (ck *Checkpoint) Bytes() int64 {
	n := int64(ck.mem.Pages()) * mem.PageSize
	if ck.hier != nil {
		n += ck.hier.Bytes()
	}
	return n
}

// NewMachineFrom builds a machine of the given configuration resumed
// from a checkpoint: the instance is reconstructed over a fresh COW
// clone of the checkpointed memory, then the architectural (and any
// warmed) state is restored. The configuration's warm-relevant geometry
// must match the one the checkpoint was produced with (the scheduler
// keys checkpoints by it).
func NewMachineFrom(cfg Config, ck *Checkpoint) (Machine, error) {
	inst := &workloads.Instance{
		Name:  ck.Workload,
		Prog:  ck.prog,
		Mem:   ck.mem.Clone(),
		Check: ck.check,
	}
	m, err := NewMachine(cfg, inst)
	if err != nil {
		return nil, err
	}
	m.Restore(ck)
	return m, nil
}

// hierWarmer adapts a hierarchy plus branch predictor to emu.Warmer,
// replaying the fetch/load/store/branch stream the detailed cores would
// have driven through them. Both cores fetch from the same synthetic
// code addresses (inorder.CodeBase + 4·pc).
type hierWarmer struct {
	h  *cache.Hierarchy
	bp *bpred.Predictor
}

// instrsPerLine is how many instructions share one L1-I line: CodeBase
// is line-aligned and every instruction is 4 bytes.
const instrsPerLine = cache.LineSize / 4

func fetchAddr(pc int) uint64 { return inorder.CodeBase + uint64(pc)*4 }

// WarmFetch offers the rest of pc's L1-I line for folding whenever the
// hierarchy reports the line resident until the next fetch elsewhere.
func (w *hierWarmer) WarmFetch(pc int) (lo, hi int) {
	if !w.h.WarmFetchInstr(fetchAddr(pc)) {
		return 0, 0
	}
	lo = pc &^ (instrsPerLine - 1)
	return lo, lo + instrsPerLine
}

func (w *hierWarmer) WarmFetchHits(pc int, n uint64) { w.h.WarmFetchHits(fetchAddr(pc), n) }
func (w *hierWarmer) WarmLoad(pc int, addr uint64)   { w.h.WarmAccess(pc, addr, false) }
func (w *hierWarmer) WarmStore(pc int, addr uint64)  { w.h.WarmAccess(pc, addr, true) }
func (w *hierWarmer) WarmBranch(pc int, taken bool)  { w.bp.Predict(pc, taken) }

func (b *machineBase) FastForward(n uint64, warm bool) bool {
	if !warm {
		return b.cpu.FastForward(n) == n
	}
	b.warmed = true
	return b.cpu.FastForwardWarm(n, &b.warmer) == n
}

func (b *machineBase) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Workload: b.inst.Name,
		prog:     b.inst.Prog,
		check:    b.inst.Check,
		mem:      b.cpu.Mem.Clone(),
		arch:     b.cpu.SaveArch(),
	}
	if b.warmed {
		ck.hier = b.h.WarmState()
		ck.bp = b.bp.Clone()
	}
	return ck
}

func (b *machineBase) Restore(ck *Checkpoint) {
	b.cpu.LoadArch(ck.arch)
	if ck.hier != nil {
		b.h.SetWarmState(ck.hier)
		b.bp.CopyFrom(ck.bp)
		b.warmed = true
	}
}
