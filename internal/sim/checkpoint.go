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
// checkpoint fans out to many cells: a machine that writes memory
// restores a clone of the frozen image, so sibling machines mutate
// memory independently. Timing state (MSHRs, walkers, DRAM channel, core
// pipeline) is never part of a checkpoint: Restore leaves a machine's
// own, exactly as a fast-forward run in place would.
type Checkpoint struct {
	Workload string

	prog  *isa.Program
	check func(*mem.Memory) error
	mem   *mem.Memory // frozen COW image at the capture point
	owned int         // pages of mem that no earlier image shares
	arch  emu.ArchState
	hier  *cache.HierarchyState // nil unless warmed
	bp    *bpred.Predictor      // nil unless warmed
}

// Instrs returns the architectural instruction count at capture.
func (ck *Checkpoint) Instrs() uint64 { return ck.arch.Seq }

// Bytes estimates what the checkpoint retains, for cache budgeting:
// every memory page it references plus its hierarchy snapshot.
func (ck *Checkpoint) Bytes() int64 { return ck.bytes(ck.mem.Pages()) }

// addedBytes is what the checkpoint adds to the one it was advanced
// from: the pages only it holds, which its producer wrote or first
// touched, plus its hierarchy snapshot. It shares every other page it
// references with that one and the ones before it.
func (ck *Checkpoint) addedBytes() int64 { return ck.bytes(ck.owned) }

func (ck *Checkpoint) bytes(pages int) int64 {
	n := int64(pages) * mem.PageSize
	if ck.hier != nil {
		n += ck.hier.Bytes()
	}
	return n
}

// instance is the workload instance ck's machines run over img.
func (ck *Checkpoint) instance(img *mem.Memory) *workloads.Instance {
	return &workloads.Instance{Name: ck.Workload, Prog: ck.prog, Mem: img, Check: ck.check}
}

// imageStart is the checkpoint at an image's program entry: zeroed
// registers, nothing warmed.
func imageStart(inst *workloads.Instance) *Checkpoint {
	return &Checkpoint{Workload: inst.Name, prog: inst.Prog, check: inst.Check, mem: inst.Mem}
}

// NewMachineFrom builds a machine of the given configuration resumed
// from a checkpoint, over a private COW clone of the checkpointed
// memory. The configuration's warm-relevant geometry must match the one
// the checkpoint was produced with (the scheduler keys checkpoints by
// it).
func NewMachineFrom(cfg Config, ck *Checkpoint) (Machine, error) {
	return newMachineAt(cfg, ck, true)
}

// newMachineAt builds cfg's machine and moves it to ck (Restore): over a
// private clone of ck's image, or, with private false, over the frozen
// image itself, which the machine then never writes.
func newMachineAt(cfg Config, ck *Checkpoint, private bool) (Machine, error) {
	m, err := NewMachine(cfg, ck.instance(ck.mem))
	if err != nil {
		return nil, err
	}
	m.base().owns = private
	m.Restore(ck)
	return m, nil
}

// advance returns the checkpoint n instructions past ck, or at the
// program's end if that comes first: ck restored on a throwaway machine
// of cfg, fast-forwarded (functionally warmed when warm) and captured.
func advance(cfg Config, ck *Checkpoint, n uint64, warm bool) *Checkpoint {
	m, err := NewMachineFrom(cfg, ck)
	if err != nil {
		panic(err)
	}
	m.FastForward(n, warm)
	return m.Checkpoint()
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
	var w emu.Warmer // an untyped nil: no warming
	if warm {
		b.warmed = true
		w = &b.warmer
	}
	return b.cpu.FastForward(n, w) == n
}

// settleQuantum is how far settle warms between looks at the tags.
const settleQuantum = 1 << 14

// settle warms the gap before the region start at instruction end in
// place until no line carries a tag of the machine's own prefetcher (IMP
// or SVR), and reports whether that took it all the way to end. A region
// start's throwaway machine has no such prefetcher, so its checkpoint
// cannot know which of those lines the gap would use and which it would
// evict. Warming never sets such a tag, so once they are resolved the
// prefetcher's tracker counts, which SVR's accuracy monitor reads across
// the gap, stand where the whole gap would leave them.
func (b *machineBase) settle(end uint64) bool {
	var o cache.Origin
	switch {
	case b.pf != nil:
		o = cache.OriginIMP
	case b.eng != nil:
		o = cache.OriginSVR
	default:
		return false
	}
	for b.h.Tracker.PendingFrom(o) > 0 {
		seq := b.cpu.InstrCount()
		if seq >= end || !b.FastForward(min(end-seq, settleQuantum), true) {
			return true // at the region start, or the program ended first
		}
	}
	return b.cpu.InstrCount() >= end
}

func (b *machineBase) Checkpoint() *Checkpoint {
	owned := b.cpu.Mem.OwnedPages() // before Clone freezes them
	ck := &Checkpoint{
		Workload: b.inst.Name,
		prog:     b.inst.Prog,
		check:    b.inst.Check,
		mem:      b.cpu.Mem.Clone(),
		owned:    owned,
		arch:     b.cpu.SaveArch(),
	}
	if b.warmed {
		ck.hier = b.h.WarmState()
		ck.bp = b.bp.Clone()
	}
	return ck
}

// Restore replaces exactly what a fast-forward writes: the registers,
// the memory image (a private clone of ck's when the machine owns its
// image, else ck's frozen image itself; IMP's prefetcher follows it)
// and, when ck was warmed, the cache, TLB, stride-table, prefetch-tag
// and branch-predictor state. Everything else the machine carries
// stays: core pipeline, MSHRs, walkers, DRAM channel, the prefetch
// tracker's counts, and IMP's and SVR's learned tables.
func (b *machineBase) Restore(ck *Checkpoint) {
	img := ck.mem
	if b.owns {
		img = img.Clone()
	}
	b.inst = ck.instance(img)
	b.cpu.Mem = img
	if b.pf != nil {
		b.pf.Mem = img
	}
	b.cpu.LoadArch(ck.arch)
	if ck.hier != nil {
		b.h.SetWarmState(ck.hier)
		b.bp.CopyFrom(ck.bp)
		b.warmed = true
	}
}
