package cache

import "unsafe"

// This file is functional warming: each Warm* method makes exactly the
// tag/LRU/victim state updates of its timed counterpart (Access,
// Prefetch, FetchInstr) by calling the same code on a miss (tlbMiss,
// fillData, fillInstr), and skips everything occupancy-based — MSHRs,
// the page-walker pool and the DRAM channel are never consulted or
// mutated. Cache, TLB and prefetch-tag contents after a warmed
// fast-forward therefore match a detailed run over the same instruction
// stream bit for bit, with one rare exception the timed path cannot
// avoid: a line evicted while its fill is still MSHR-inflight is
// re-fetch-free in the timed model (the secondary miss merges with the
// fill) but re-filled here. Counters accumulated while warming (hits,
// misses, DRAM loads) are discarded by the Registry.Reset at the
// measurement boundary, as in any warmup.

// WarmAccess makes the state updates of a demand Access: translation
// inserts, prefetch-tag touch, L1-D lookup/fill chain and the stride
// prefetcher's reaction.
func (h *Hierarchy) WarmAccess(pc int, addr uint64, write bool) {
	if !h.DTLB.Lookup(addr) {
		h.tlbMiss(h.DTLB, addr)
	}
	h.Tracker.Touch(addr)
	if hit, _ := h.L1D.Lookup(addr, write, true); !hit {
		h.fillData(addr, write, OriginDemand, true)
	}
	if h.Stride != nil && !write {
		h.pfBuf = h.Stride.Observe(pc, addr, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.WarmPrefetch(pa, OriginStride)
		}
	}
}

// WarmPrefetch makes the state updates of a prefetch issued by origin.
func (h *Hierarchy) WarmPrefetch(addr uint64, origin Origin) {
	if !h.DTLB.Lookup(addr) {
		h.tlbMiss(h.DTLB, addr)
	}
	if !h.L1D.Refresh(addr) {
		h.fillData(addr, false, origin, false)
	}
}

// WarmFetchInstr makes the state updates of an instruction fetch: I-TLB
// inserts and the L1-I fill pair (missed line plus next-line prefetch).
// It reports whether the fetched line is certain to stay in the L1-I and
// I-TLB until a fetch from another line: fetches hit only the
// instruction side, so only this fetch's own next-line fill could evict
// it, and that happens only in an L1-I of a single line. While it holds,
// further fetches from the line are hits that WarmFetchHits can replay
// in one update.
func (h *Hierarchy) WarmFetchInstr(addr uint64) (resident bool) {
	if !h.ITLB.Lookup(addr) {
		h.tlbMiss(h.ITLB, addr)
	}
	if hit, _ := h.L1I.Lookup(addr, false, true); hit {
		h.lastILine = addr &^ (LineSize - 1)
		return true
	}
	h.fillInstr(addr)
	return len(h.L1I.sets) > 1
}

// WarmFetchHits replays n fetches from addr's line, which the last
// WarmFetchInstr fetched and reported resident. Each would be an I-TLB
// and L1-I hit that touches nothing else, so the n fetches collapse into
// one n-hit update of each; the state after is that of n
// WarmFetchInstr calls, and the data side may run in between.
func (h *Hierarchy) WarmFetchHits(addr uint64, n uint64) {
	if !h.ITLB.LookupRun(addr, n) || !h.L1I.LookupRun(addr, n) {
		panic("cache: folded instruction fetches missed")
	}
	h.lastILine = addr &^ (LineSize - 1)
}

// HierarchyState is a deep snapshot of the warm-relevant hierarchy
// state: cache line arrays and LRU clocks, TLB entries, stride-table
// entries and outstanding prefetch tags. Timing state (MSHRs, walkers,
// DRAM channel) and counters are deliberately excluded — a restored
// machine starts them fresh, exactly as a warmed-in-place machine does.
type HierarchyState struct {
	l1d, l1i, l2     cacheState
	dtlb, itlb, stlb tlbState
	stride           []strideEntry     // nil when no stride prefetcher
	tags             map[uint64]Origin // outstanding prefetch tags
	lastILine        uint64
}

type cacheState struct {
	tagp     []uint64
	sets     []line
	lruClock uint64
}

type tlbState struct {
	vpns    []uint64
	lastUse []uint64
	clock   uint64
}

// WarmState deep-copies the hierarchy's warm-relevant state. The
// snapshot is immutable and safe to restore into any hierarchy with the
// same cache/TLB/prefetcher geometry.
func (h *Hierarchy) WarmState() *HierarchyState {
	s := &HierarchyState{
		l1d:       captureCache(h.L1D),
		l1i:       captureCache(h.L1I),
		l2:        captureCache(h.L2),
		dtlb:      captureTLB(h.DTLB),
		itlb:      captureTLB(h.ITLB),
		stlb:      captureTLB(h.STLB),
		tags:      make(map[uint64]Origin, h.Tracker.Pending()),
		lastILine: h.lastILine,
	}
	h.Tracker.each(func(a uint64, o Origin) { s.tags[a] = o })
	if h.Stride != nil {
		s.stride = append([]strideEntry(nil), h.Stride.entries...)
	}
	return s
}

// SetWarmState restores a WarmState snapshot in place. Geometry must
// match the snapshot's; the MRU entries are dropped (they point into
// pre-restore contents and are semantically transparent).
func (h *Hierarchy) SetWarmState(s *HierarchyState) {
	restoreCache(h.L1D, s.l1d)
	restoreCache(h.L1I, s.l1i)
	restoreCache(h.L2, s.l2)
	restoreTLB(h.DTLB, s.dtlb)
	restoreTLB(h.ITLB, s.itlb)
	restoreTLB(h.STLB, s.stlb)
	if h.Stride != nil {
		if len(h.Stride.entries) != len(s.stride) {
			panic("cache: warm-state stride geometry mismatch")
		}
		copy(h.Stride.entries, s.stride)
	}
	t := h.Tracker
	t.resetTags()
	for a, o := range s.tags {
		t.setTag(a, o)
	}
	h.lastILine = s.lastILine
}

// Bytes estimates the snapshot's retained size for cache budgeting,
// from the sizes of the elements it holds.
func (s *HierarchyState) Bytes() int64 {
	const word = int64(unsafe.Sizeof(uint64(0)))
	var n int64
	for _, c := range [3]cacheState{s.l1d, s.l1i, s.l2} {
		n += int64(len(c.tagp))*word + int64(len(c.sets))*int64(unsafe.Sizeof(line{}))
	}
	for _, t := range [3]tlbState{s.dtlb, s.itlb, s.stlb} {
		n += int64(len(t.vpns)+len(t.lastUse)) * word
	}
	n += int64(len(s.stride)) * int64(unsafe.Sizeof(strideEntry{}))
	// A map entry holds its key and value; bucket overhead is not counted.
	n += int64(len(s.tags)) * (word + int64(unsafe.Sizeof(Origin(0))))
	return n
}

func captureCache(c *Cache) cacheState {
	return cacheState{
		tagp:     append([]uint64(nil), c.tagp...),
		sets:     append([]line(nil), c.sets...),
		lruClock: c.lruClock,
	}
}

func restoreCache(c *Cache, s cacheState) {
	if len(c.sets) != len(s.sets) {
		panic("cache: warm-state geometry mismatch for " + c.Name)
	}
	copy(c.tagp, s.tagp)
	copy(c.sets, s.sets)
	c.lruClock = s.lruClock
	c.fastLine, c.fastWay = 0, nil
}

func captureTLB(t *TLB) tlbState {
	return tlbState{
		vpns:    append([]uint64(nil), t.vpns...),
		lastUse: append([]uint64(nil), t.lastUse...),
		clock:   t.clock,
	}
}

func restoreTLB(t *TLB, s tlbState) {
	if len(t.vpns) != len(s.vpns) {
		panic("tlb: warm-state geometry mismatch for " + t.Name)
	}
	copy(t.vpns, s.vpns)
	copy(t.lastUse, s.lastUse)
	t.clock = s.clock
	t.fastVPN, t.fastIdx = 0, 0
}
