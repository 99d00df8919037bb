// Package cache models the on-chip memory system: set-associative
// write-back caches with MSHRs and prefetch tags, TLBs with a page-walker
// pool, a reference-prediction-table stride prefetcher, and the Hierarchy
// that stitches them to the DRAM channel.
//
// Timing is occupancy-based: each access computes its completion cycle at
// issue from the current state of the MSHRs, page walkers and DRAM
// channel. This captures the first-order limits the paper studies —
// hit-under-miss MSHR saturation (Fig 17) and bandwidth saturation
// (Fig 18) — without a discrete-event queue.
package cache

import (
	"fmt"

	"repro/internal/metrics"
)

// Origin identifies who caused a memory request; used for the DRAM-origin
// breakdown of Fig 13b and for prefetch-accuracy accounting (Fig 13a).
type Origin int

// Request origins.
const (
	OriginDemand Origin = iota // main-thread demand access
	OriginStride               // baseline L1D stride prefetcher
	OriginIMP                  // indirect memory prefetcher
	OriginSVR                  // scalar vector runahead
	OriginPTW                  // page-table walk
	NumOrigins
)

var originNames = [NumOrigins]string{"demand", "stride", "imp", "svr", "ptw"}

// String returns the origin label used in counters.
func (o Origin) String() string {
	if o >= 0 && int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", int(o))
}

// LineBits is log2 of the cache-line size (64 B, Table III).
const LineBits = 6

// LineSize is the cache-line size in bytes.
const LineSize = 1 << LineBits

// line is a way's replacement and prefetch state. Its tag and validity
// live only in the packed tagp row, so the struct stays 16 bytes and
// an 8-way set's stamps span two host cache lines.
type line struct {
	lastUse  uint64 // LRU timestamp
	prefetch int8   // Origin that prefetched the line, or -1
	dirty    bool
	touched  bool // demand-accessed since fill
}

// Cache is one level of set-associative, write-back, write-allocate cache.
type Cache struct {
	Name     string
	sets     []line   // ways*numSets entries, set-major
	tagp     []uint64 // parallel to sets: tag+1, 0 = invalid
	ways     int
	setMask  uint64
	setBits  uint
	lruClock uint64

	// Single-entry last-line cache: fastLine is the line index
	// (addr>>LineBits) of the most recently found or filled line plus
	// one (zero = invalid) and fastWay points at its way. Every probe
	// consults it before scanning the set, and a scan or Fill repoints
	// it. It only short-cuts finding the way, so cache contents, LRU
	// order and counters are bit-identical either way.
	fastLine uint64
	fastWay  *line

	// MSHRs: outstanding fills, as (line address, ready cycle) pairs.
	// mshrMaxReady is the latest fill completion ever recorded: a probe
	// at a cycle at or past it cannot find an in-flight fill, which lets
	// the demand path skip the MSHR scan entirely.
	mshrs        []mshrEntry
	mshrCap      int
	mshrMaxReady int64

	// Stats.
	Accesses        int64
	Misses          int64
	MSHRStallCycles int64

	mshrStall *metrics.Histogram // per-acquire stall distribution, if registered
}

// Register publishes the cache's counters under the given metric prefix
// (e.g. "l1d" → "l1d.accesses"). The fields stay plain — hot paths and
// existing readers are untouched — while the registry gains reset and
// export authority over them.
func (c *Cache) Register(r *metrics.Registry, prefix string) {
	r.Int64(prefix+".accesses", c.Name+" lookups", &c.Accesses)
	r.Int64(prefix+".misses", c.Name+" lookup misses", &c.Misses)
	r.Int64(prefix+".mshr_stall_cycles", c.Name+" cycles stalled waiting for a free MSHR", &c.MSHRStallCycles)
}

type mshrEntry struct {
	lineAddr uint64
	readyAt  int64
}

// NewCache builds a cache of the given total size, associativity and MSHR
// count. Size must be a power-of-two multiple of ways*LineSize.
func NewCache(name string, sizeBytes, ways, mshrs int) *Cache {
	numLines := sizeBytes / LineSize
	numSets := numLines / ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", name, sizeBytes, ways))
	}
	setBits := uint(0)
	for 1<<setBits < numSets {
		setBits++
	}
	c := &Cache{
		Name:    name,
		sets:    make([]line, numLines),
		tagp:    make([]uint64, numLines),
		ways:    ways,
		setMask: uint64(numSets - 1),
		setBits: setBits,
		mshrCap: mshrs,
	}
	for i := range c.sets {
		c.sets[i].prefetch = -1
	}
	return c
}

// setBase returns the flat index of addr's set's first way. The tag
// match scans run over tagp[base:base+ways] — a dense uint64 run (one
// cache line for 8 ways). Fill is the sole mutator of a way's identity.
func (c *Cache) setBase(addr uint64) uint64 {
	return ((addr >> LineBits) & c.setMask) * uint64(c.ways)
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> (LineBits + c.setBits) }

// find returns addr's way, or nil when the line is absent: the MRU
// entry first, then one scan of the set.
func (c *Cache) find(addr uint64) *line {
	if c.fastLine == addr>>LineBits+1 {
		return c.fastWay
	}
	return c.scan(addr)
}

// scan looks addr's line up in its set's tagp row and repoints the MRU
// entry at it. Tags are unique within a set, so the scan compares every
// way and selects the match without an early exit: its cost does not
// depend on where the line sits, and the host predicts one loop branch
// instead of the match position.
func (c *Cache) scan(addr uint64) *line {
	key := c.tag(addr) + 1
	base := c.setBase(addr)
	hit := -1
	for i, t := range c.tagp[base : base+uint64(c.ways)] {
		if t == key {
			hit = i
		}
	}
	if hit < 0 {
		return nil
	}
	l := &c.sets[base+uint64(hit)]
	c.fastLine, c.fastWay = addr>>LineBits+1, l
	return l
}

// Lookup probes the cache without filling. On hit it refreshes LRU state,
// marks the line touched, and reports any prefetch origin the line carried
// (clearing it, since a prefetch counts as useful on first demand touch
// when markTouched is set).
func (c *Cache) Lookup(addr uint64, write, markTouched bool) (hit bool, wasPrefetch Origin) {
	c.Accesses++
	l := c.find(addr)
	if l == nil {
		c.Misses++
		return false, -1
	}
	c.lruClock++
	l.lastUse = c.lruClock
	if write {
		l.dirty = true
	}
	pf := Origin(l.prefetch)
	if markTouched {
		l.touched = true
		l.prefetch = -1
	}
	return true, pf
}

// LookupRun has exactly the effect of n ≥ 1 calls of
// Lookup(addr, false, true) and reports whether they hit. The calls
// would find the same line, so n hits collapse into one update: the
// clock advances by n and the line takes the last stamp.
func (c *Cache) LookupRun(addr uint64, n uint64) bool {
	c.Accesses += int64(n)
	l := c.find(addr)
	if l == nil {
		c.Misses += int64(n)
		return false
	}
	c.lruClock += n
	l.lastUse = c.lruClock
	l.touched = true
	l.prefetch = -1
	return true
}

// Refresh re-touches a present line exactly as a no-write, no-mark Lookup
// hit would — counting the access and bumping LRU — but records nothing at
// all on a miss. It fuses the prefetch path's Peek-then-Lookup pair into a
// single set scan; the state after Refresh is bit-identical to
// `if c.Peek(addr) { c.Lookup(addr, false, false) }`.
func (c *Cache) Refresh(addr uint64) bool {
	l := c.find(addr)
	if l == nil {
		return false
	}
	c.Accesses++
	c.lruClock++
	l.lastUse = c.lruClock
	return true
}

// Peek reports whether the line is present. It changes no contents,
// recency or counters.
func (c *Cache) Peek(addr uint64) bool { return c.find(addr) != nil }

// Victim describes a line evicted by Fill.
type Victim struct {
	Valid    bool
	Dirty    bool
	Addr     uint64 // line-aligned address of the evicted line
	Prefetch Origin // prefetch origin if never demand-touched, else -1
	Touched  bool
}

// Fill installs the line containing addr, evicting the LRU way if needed.
// prefetchOrigin < 0 marks a demand fill.
func (c *Cache) Fill(addr uint64, dirty bool, prefetchOrigin Origin) Victim {
	key := c.tag(addr) + 1
	base := c.setBase(addr)
	set := c.sets[base : base+uint64(c.ways)]
	tp := c.tagp[base : base+uint64(c.ways)]
	// Victim rule: the last invalid way, else the first minimum
	// lastUse. The match and invalid-way pass runs over the dense tagp
	// row; only a full set reads the stamps.
	vi := -1
	for i, t := range tp {
		if t == key {
			// Already present (raced fill); just update.
			l := &set[i]
			if dirty {
				l.dirty = true
			}
			c.fastLine, c.fastWay = addr>>LineBits+1, l
			return Victim{}
		}
		if t == 0 {
			vi = i
		}
	}
	if vi < 0 {
		vi = lruWay(set)
	}
	v := &set[vi]
	victim := Victim{}
	if old := tp[vi]; old != 0 {
		victim = Victim{
			Valid:    true,
			Dirty:    v.dirty,
			Addr:     ((old-1)<<c.setBits | ((addr >> LineBits) & c.setMask)) << LineBits,
			Prefetch: Origin(v.prefetch),
			Touched:  v.touched,
		}
	}
	c.lruClock++
	*v = line{lastUse: c.lruClock, prefetch: int8(prefetchOrigin), dirty: dirty}
	tp[vi] = key
	// Repoint the last-line cache at the filled line. This also heals the
	// one way the mapping can go stale: a fill is the only operation that
	// changes which line a way holds.
	c.fastLine, c.fastWay = addr>>LineBits+1, v
	return victim
}

// lruWay returns the index of the first minimum lastUse in set. The
// loop compiles to conditional moves: which way is oldest is
// data-dependent, so a branch there mispredicts. Inlined into Fill it
// compiles to a branch again, hence the directive.
//
//go:noinline
func lruWay(set []line) int {
	vi, oldest := 0, set[0].lastUse
	for i := 1; i < len(set); i++ {
		u := set[i].lastUse
		if u < oldest {
			vi = i
		}
		oldest = min(oldest, u)
	}
	return vi
}

// pruneMSHRs drops entries whose fill completed at or before cycle at.
func (c *Cache) pruneMSHRs(at int64) {
	keep := c.mshrs[:0]
	for _, e := range c.mshrs {
		if e.readyAt > at {
			keep = append(keep, e)
		}
	}
	c.mshrs = keep
}

// MSHRLookup returns the ready time of an in-flight fill for the line, if any.
func (c *Cache) MSHRLookup(addr uint64, at int64) (int64, bool) {
	lineAddr := addr &^ (LineSize - 1)
	for _, e := range c.mshrs {
		if e.lineAddr == lineAddr && e.readyAt > at {
			return e.readyAt, true
		}
	}
	return 0, false
}

// MSHRAcquire reserves an MSHR for a new outstanding miss beginning at
// cycle at. If all MSHRs are busy the request waits for the earliest one
// to free; the returned start time reflects that stall. Call
// MSHRComplete to set the fill time once known.
func (c *Cache) MSHRAcquire(addr uint64, at int64) (start int64, idx int) {
	c.pruneMSHRs(at)
	start = at
	for len(c.mshrs) >= c.mshrCap {
		earliest := c.mshrs[0].readyAt
		for _, e := range c.mshrs[1:] {
			if e.readyAt < earliest {
				earliest = e.readyAt
			}
		}
		c.MSHRStallCycles += earliest - start
		start = earliest
		c.pruneMSHRs(start)
	}
	if start > at && c.mshrStall != nil {
		c.mshrStall.Observe(start - at)
	}
	c.mshrs = append(c.mshrs, mshrEntry{lineAddr: addr &^ (LineSize - 1), readyAt: int64(1) << 62})
	return start, len(c.mshrs) - 1
}

// MSHRComplete records the fill completion time for the entry returned by
// MSHRAcquire.
func (c *Cache) MSHRComplete(idx int, readyAt int64) {
	c.mshrs[idx].readyAt = readyAt
	if readyAt > c.mshrMaxReady {
		c.mshrMaxReady = readyAt
	}
}

// MSHRQuiesced reports that no fill can be in flight at cycle at: every
// completion ever recorded is at or before at. It lets hit-dominated
// phases skip the MSHR scan; when it returns false the caller must do the
// full MSHRLookup.
func (c *Cache) MSHRQuiesced(at int64) bool { return at >= c.mshrMaxReady }

// MSHROccupancy returns the number of outstanding misses at cycle at.
func (c *Cache) MSHROccupancy(at int64) int {
	n := 0
	for _, e := range c.mshrs {
		if e.readyAt > at {
			n++
		}
	}
	return n
}
