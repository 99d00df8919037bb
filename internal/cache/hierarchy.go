package cache

import (
	"repro/internal/dram"
	"repro/internal/metrics"
)

// Level identifies where an access was satisfied.
type Level int

// Service levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "mem"
	}
}

// Result reports the outcome of a memory access.
type Result struct {
	CompleteAt int64 // cycle the data is available to the consumer
	Level      Level // where the data came from
}

// Config sizes the hierarchy. DefaultConfig matches Table III.
type Config struct {
	L1Size, L1Ways, L1MSHRs int
	L1Latency               int64
	L1ISize, L1IWays        int
	L2Size, L2Ways          int
	L2Latency               int64

	DTLBEntries           int
	STLBEntries, STLBWays int
	STLBLatency           int64
	NumPTWs               int
	WalkLatency           int64

	// StrideDegree is the baseline L1-D stride prefetcher's degree;
	// 0 disables it.
	StrideDegree int

	DRAM dram.Config
}

// DefaultConfig returns the Table III memory system: 64 KiB 4-way L1-D
// with 16 MSHRs and a stride prefetcher, 512 KiB 8-way L2, 16-entry
// fully-associative D-TLB, 2048-entry 8-way S-TLB, 4 page-table walkers,
// 45 ns / 50 GiB/s DRAM.
func DefaultConfig() Config {
	return Config{
		L1Size: 64 << 10, L1Ways: 4, L1MSHRs: 16, L1Latency: 3,
		L1ISize: 64 << 10, L1IWays: 4,
		L2Size: 512 << 10, L2Ways: 8, L2Latency: 13,
		DTLBEntries: 16,
		STLBEntries: 2048, STLBWays: 8, STLBLatency: 4,
		NumPTWs: 4, WalkLatency: 30,
		StrideDegree: 4,
		DRAM:         dram.DefaultConfig(),
	}
}

// Hierarchy is the full data-side memory system.
type Hierarchy struct {
	Cfg     Config
	L1D     *Cache
	L1I     *Cache
	L2      *Cache
	DTLB    *TLB
	ITLB    *TLB
	STLB    *TLB
	Walkers *WalkerPool
	DRAM    *dram.Channel
	Stride  *StridePrefetcher
	Tracker *Tracker

	// Reg is the machine-wide metrics registry. Every component of the
	// hierarchy registers its counters here at construction, and the core
	// (plus any companion engine) joins at its own construction, so one
	// Reg.Reset() is the whole warmup/measure boundary.
	Reg *metrics.Registry

	// DRAMLoads counts data-side line fetches from DRAM by origin
	// (Fig 13b).
	DRAMLoads [NumOrigins]int64
	// IFetchLoads counts instruction-side line fetches from DRAM
	// (Fig 13b's "Core(inst)" category).
	IFetchLoads int64
	// Writebacks counts dirty-line writebacks to DRAM.
	Writebacks int64

	demandLat [3]*metrics.Histogram // demand-load completion latency per service level

	lastILine uint64 // last fetched instruction line (fetch-ahead state)
	pfBuf     []uint64
}

// NewHierarchy builds the memory system from a configuration.
func NewHierarchy(cfg Config) *Hierarchy {
	return NewHierarchyShared(cfg, dram.New(cfg.DRAM))
}

// NewHierarchyShared builds a per-core memory system that shares an
// externally owned DRAM channel — the substrate for the multi-core
// experiment suggested by §VI-E (per-core caches, one memory interface).
func NewHierarchyShared(cfg Config, ch *dram.Channel) *Hierarchy {
	h := &Hierarchy{
		Cfg:     cfg,
		L1D:     NewCache("L1D", cfg.L1Size, cfg.L1Ways, cfg.L1MSHRs),
		L1I:     NewCache("L1I", cfg.L1ISize, cfg.L1IWays, 4),
		L2:      NewCache("L2", cfg.L2Size, cfg.L2Ways, 32),
		DTLB:    NewTLB("DTLB", cfg.DTLBEntries, cfg.DTLBEntries), // fully associative
		ITLB:    NewTLB("ITLB", cfg.DTLBEntries, cfg.DTLBEntries), // fully associative
		STLB:    NewTLB("STLB", cfg.STLBEntries, cfg.STLBWays),
		Walkers: NewWalkerPool(cfg.NumPTWs, cfg.WalkLatency),
		DRAM:    ch,
		Tracker: NewTracker(),
	}
	if cfg.StrideDegree > 0 {
		h.Stride = NewStridePrefetcher(64, cfg.StrideDegree)
	}

	r := metrics.New()
	h.Reg = r
	h.L1D.Register(r, "l1d")
	h.L1I.Register(r, "l1i")
	h.L2.Register(r, "l2")
	h.DTLB.Register(r, "dtlb")
	h.ITLB.Register(r, "itlb")
	h.STLB.Register(r, "stlb")
	h.Walkers.Register(r)
	ch.Register(r)
	h.Tracker.Register(r)
	for o := Origin(0); o < NumOrigins; o++ {
		r.Int64("dram.loads."+o.String(), "data-side DRAM line fetches caused by "+o.String(), &h.DRAMLoads[o])
	}
	r.Int64("dram.loads.inst", "instruction-side DRAM line fetches", &h.IFetchLoads)
	r.Int64("dram.writebacks", "dirty-line writebacks to DRAM", &h.Writebacks)
	if h.Stride != nil {
		r.Int64("stride.issued", "lines requested by the L1-D stride prefetcher", &h.Stride.Issued)
	}
	h.L1D.mshrStall = r.NewHistogram("lat.l1d.mshr_stall", "per-acquire L1-D MSHR stall (cycles, stalled acquires only)")
	for lvl, name := range [3]string{"l1", "l2", "mem"} {
		h.demandLat[lvl] = r.NewHistogram("lat.demand."+name,
			"demand-load completion latency for loads served from "+Level(lvl).String()+" (cycles)")
	}
	return h
}

// translate runs the TLB/PTW path and returns the cycle at which the
// physical address is known.
func (h *Hierarchy) translate(addr uint64, at int64) int64 {
	if h.DTLB.Lookup(addr) {
		return at // D-TLB hit is pipelined with the L1 access
	}
	if h.tlbMiss(h.DTLB, addr) {
		return at + h.Cfg.STLBLatency
	}
	return h.Walkers.Walk(at + h.Cfg.STLBLatency)
}

// tlbMiss installs addr's translation in l1, a first-level TLB that just
// missed: an S-TLB lookup and, when that misses too, the S-TLB insert a
// page walk ends with. It reports whether the S-TLB hit; the timed paths
// book the walk.
func (h *Hierarchy) tlbMiss(l1 *TLB, addr uint64) (stlbHit bool) {
	stlbHit = h.STLB.Lookup(addr)
	if !stlbHit {
		h.STLB.Insert(addr)
	}
	l1.Insert(addr)
	return stlbHit
}

// fetchLine brings the line for addr to L1 (and L2 if it came from DRAM),
// starting at cycle at. It assumes the line is not in L1 and no L1 MSHR is
// in flight for it. origin < NumOrigins tags prefetch fills. Returns the
// fill-complete time and the service level.
func (h *Hierarchy) fetchLine(addr uint64, write bool, at int64, origin Origin, demand bool) Result {
	start, mshr := h.L1D.MSHRAcquire(addr, at)
	fill, lvl := start+h.Cfg.L1Latency+h.Cfg.L2Latency, LevelL2
	l2Hit, writebacks := h.fillData(addr, write, origin, demand)
	if !l2Hit {
		fill, lvl = h.DRAM.Access(fill), LevelMem
	}
	for ; writebacks > 0; writebacks-- {
		h.DRAM.Access(fill)
	}
	h.L1D.MSHRComplete(mshr, fill)
	return Result{CompleteAt: fill, Level: lvl}
}

// fillData installs addr's line in the L1-D after a miss there: from
// the L2 or, when that misses too, from DRAM into both, counting the
// line against origin and tagging a prefetch (non-demand) fill. Victims
// leave the tracker; a dirty L1-D victim falls back to the L2. It
// reports whether the L2 hit and how many dirty lines went back to DRAM;
// the timed path books the line fetch and those write-backs.
func (h *Hierarchy) fillData(addr uint64, write bool, origin Origin, demand bool) (l2Hit bool, writebacks int) {
	pfOrigin := Origin(-1)
	if !demand {
		pfOrigin = origin
	}
	l2Hit, _ = h.L2.Lookup(addr, false, demand)
	if !l2Hit {
		h.DRAMLoads[origin]++
		if !demand {
			h.Tracker.Mark(addr, origin)
		}
		writebacks = h.fillL2(addr, false, pfOrigin)
	}
	if v := h.L1D.Fill(addr, write && demand, pfOrigin); v.Valid && v.Dirty {
		writebacks += h.fillL2(v.Addr, true, -1)
	}
	return l2Hit, writebacks
}

// fillL2 installs a line in the L2 and returns 1 if its victim was dirty
// and went back to DRAM, else 0.
func (h *Hierarchy) fillL2(addr uint64, dirty bool, origin Origin) int {
	v := h.L2.Fill(addr, dirty, origin)
	if !v.Valid {
		return 0
	}
	h.Tracker.Evict(v.Addr)
	if !v.Dirty {
		return 0
	}
	h.Writebacks++
	return 1
}

// Access performs a demand load or store issued at cycle at by the
// instruction at pc. It drives the stride prefetcher, prefetch-tag
// accounting, TLB and MSHR occupancy.
func (h *Hierarchy) Access(pc int, addr uint64, write bool, at int64) Result {
	t := h.translate(addr, at)
	h.Tracker.Touch(addr)

	res := h.demandAccess(addr, write, t)
	if !write {
		if hl := h.demandLat[res.Level]; hl != nil {
			hl.Observe(res.CompleteAt - at)
		}
	}

	if h.Stride != nil && !write {
		// Keep the (possibly grown) buffer so steady-state prefetch
		// bursts reuse one backing array instead of allocating per load.
		h.pfBuf = h.Stride.Observe(pc, addr, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.Prefetch(pa, at, OriginStride)
		}
	}
	return res
}

func (h *Hierarchy) demandAccess(addr uint64, write bool, t int64) Result {
	// An in-flight fill shadows the (already-installed) line contents:
	// data is not usable before the fill completes. When every recorded
	// fill has already completed the scan is skipped outright — the
	// common case in hit-dominated phases.
	var ready int64
	var inflight bool
	if !h.L1D.MSHRQuiesced(t) {
		ready, inflight = h.L1D.MSHRLookup(addr, t)
	}
	if hit, _ := h.L1D.Lookup(addr, write, true); hit {
		if inflight {
			return Result{CompleteAt: max(ready, t+h.Cfg.L1Latency), Level: LevelMem}
		}
		return Result{CompleteAt: t + h.Cfg.L1Latency, Level: LevelL1}
	}
	if inflight {
		// Secondary miss: merge with the in-flight fill.
		return Result{CompleteAt: max(ready, t+h.Cfg.L1Latency), Level: LevelMem}
	}
	return h.fetchLine(addr, write, t, OriginDemand, true)
}

// Prefetch requests the line containing addr on behalf of origin, issued
// at cycle at. It returns when the line (and thus its data, for SVR lane
// values) is available. Lines already present or in flight cost only the
// L1 latency or the remaining fill time.
func (h *Hierarchy) Prefetch(addr uint64, at int64, origin Origin) Result {
	t := h.translate(addr, at)
	var ready int64
	var inflight bool
	if !h.L1D.MSHRQuiesced(t) {
		ready, inflight = h.L1D.MSHRLookup(addr, t)
	}
	if h.L1D.Refresh(addr) {
		// Present: LRU refreshed, prefetch tags untouched (only demand
		// touches count for accuracy).
		if inflight {
			return Result{CompleteAt: max(ready, t+h.Cfg.L1Latency), Level: LevelMem}
		}
		return Result{CompleteAt: t + h.Cfg.L1Latency, Level: LevelL1}
	}
	if inflight {
		return Result{CompleteAt: ready, Level: LevelMem}
	}
	return h.fetchLine(addr, false, t, origin, false)
}

// FetchInstr models the instruction-fetch path for the instruction at
// the given code address, issued at cycle at. Kernel loops live entirely
// in the L1-I, so the common case is free (hit latency is hidden by
// fetch-ahead); a miss stalls the front end for the fill.
func (h *Hierarchy) FetchInstr(addr uint64, at int64) (bubble int64) {
	if !h.ITLB.Lookup(addr) {
		if h.tlbMiss(h.ITLB, addr) {
			bubble = h.Cfg.STLBLatency
		} else {
			bubble = h.Walkers.Walk(at+h.Cfg.STLBLatency) - at
		}
	}
	line := addr &^ (LineSize - 1)
	if hit, _ := h.L1I.Lookup(addr, false, true); hit {
		h.lastILine = line
		return bubble
	}
	// I-miss: fill from L2 (or DRAM). Sequential fetch-ahead hides the
	// latency of misses that continue straight-line execution — the
	// front end requested the next line while draining its fetch queue —
	// so only discontinuous misses (cold jumps) stall fetch.
	sequential := line == h.lastILine+LineSize
	fill := at + bubble + h.Cfg.L1Latency + h.Cfg.L2Latency
	if !h.fillInstr(addr) {
		fill = h.DRAM.Access(fill)
	}
	if sequential {
		return bubble
	}
	return fill - at
}

// fillInstr fills the L1-I after a miss on addr's line, from the L2 or,
// counted, from DRAM, prefetches the next line alongside and makes the
// line the last one fetched. It reports whether the L2 hit; the timed
// path books the DRAM fetch.
func (h *Hierarchy) fillInstr(addr uint64) (l2Hit bool) {
	l2Hit, _ = h.L2.Lookup(addr, false, true)
	if !l2Hit {
		h.IFetchLoads++
	}
	line := addr &^ (LineSize - 1)
	h.L1I.Fill(addr, false, -1)
	h.L1I.Fill(line+LineSize, false, -1) // next-line prefetch
	h.lastILine = line
	return l2Hit
}

// TotalDRAMLoads sums line fetches across origins, including the
// instruction side.
func (h *Hierarchy) TotalDRAMLoads() int64 {
	n := h.IFetchLoads
	for _, v := range h.DRAMLoads {
		n += v
	}
	return n
}
