package cache

import "repro/internal/metrics"

// PageBits is log2 of the architectural page size (4 KiB).
const PageBits = 12

// TLB is a set-associative translation buffer with LRU replacement.
// Fully-associative TLBs (the 16-entry D-TLB of Table III) use one set.
//
// Entries are stored structure-of-arrays: vpns holds each slot's vpn
// plus one (zero = invalid slot) and lastUse its LRU timestamp, both
// flat and set-major. The hit scan then touches one dense uint64 run —
// a 16-way set is two cache lines — instead of striding through an
// array of structs.
type TLB struct {
	Name    string
	vpns    []uint64 // ways*numSets slots, vpn+1 per slot, 0 = invalid
	lastUse []uint64 // LRU timestamp per slot
	ways    int
	setMask uint64
	clock   uint64

	// Single-entry MRU cache: fastVPN is the last hit or inserted vpn
	// plus one (zero = invalid), fastIdx its flat slot index. The fast
	// path in Lookup replays exactly the state updates of a scan hit, so
	// LRU order and counters are bit-identical; Insert repoints it, which
	// also heals the only way the mapping can go stale (a slot only
	// changes vpn in Insert).
	fastVPN uint64
	fastIdx uint64

	Accesses int64
	Misses   int64
}

// Register publishes the TLB's counters under the given metric prefix.
func (t *TLB) Register(r *metrics.Registry, prefix string) {
	r.Int64(prefix+".accesses", t.Name+" lookups", &t.Accesses)
	r.Int64(prefix+".misses", t.Name+" lookup misses", &t.Misses)
}

// NewTLB builds a TLB with the given number of entries and associativity.
// entries must be a multiple of ways and the set count a power of two.
func NewTLB(name string, entries, ways int) *TLB {
	numSets := entries / ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic("tlb: bad geometry")
	}
	return &TLB{
		Name:    name,
		vpns:    make([]uint64, numSets*ways),
		lastUse: make([]uint64, numSets*ways),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
}

// setBase returns the flat index of the first slot of vpn's set.
func (t *TLB) setBase(vpn uint64) uint64 { return (vpn & t.setMask) * uint64(t.ways) }

// find returns the flat slot index of vpn, or -1 when it is absent:
// the MRU entry first, then one scan of the set that compares every
// slot and selects the match without an early exit (vpns are unique
// within a set).
func (t *TLB) find(vpn uint64) int {
	if t.fastVPN == vpn+1 {
		return int(t.fastIdx)
	}
	base := t.setBase(vpn)
	hit := -1
	for i, k := range t.vpns[base : base+uint64(t.ways)] {
		if k == vpn+1 {
			hit = i
		}
	}
	if hit < 0 {
		return -1
	}
	t.fastVPN, t.fastIdx = vpn+1, base+uint64(hit)
	return int(t.fastIdx)
}

// Lookup probes the TLB for the page containing addr.
func (t *TLB) Lookup(addr uint64) bool {
	return t.LookupRun(addr, 1)
}

// LookupRun has exactly the effect of n ≥ 1 Lookup(addr) calls and
// reports whether they hit: n hits on one slot collapse into one update,
// the clock advancing by n and the slot taking the last stamp.
func (t *TLB) LookupRun(addr uint64, n uint64) bool {
	t.Accesses += int64(n)
	idx := t.find(addr >> PageBits)
	if idx < 0 {
		t.Misses += int64(n)
		return false
	}
	t.clock += n
	t.lastUse[idx] = t.clock
	return true
}

// Insert installs a translation, evicting LRU. A page already present
// keeps its slot and LRU position.
func (t *TLB) Insert(addr uint64) {
	vpn := addr >> PageBits
	base := t.setBase(vpn)
	keys := t.vpns[base : base+uint64(t.ways)]
	// Victim rule: the last invalid slot, else the first minimum
	// lastUse. The match and invalid-slot pass reads only the keys; a
	// full set then scans the stamps.
	vi := -1
	for i, k := range keys {
		if k == vpn+1 {
			t.fastVPN, t.fastIdx = vpn+1, base+uint64(i)
			return
		}
		if k == 0 {
			vi = i
		}
	}
	if vi < 0 {
		use := t.lastUse[base : base+uint64(t.ways)]
		vi = 0
		oldest := use[0]
		for i := 1; i < len(use); i++ {
			// A conditional move, as in Cache.Fill.
			u := use[i]
			if u < oldest {
				vi = i
			}
			oldest = min(oldest, u)
		}
	}
	idx := base + uint64(vi)
	t.clock++
	t.vpns[idx] = vpn + 1
	t.lastUse[idx] = t.clock
	t.fastVPN, t.fastIdx = vpn+1, idx
}

// WalkerPool models the page-table walkers (4 in Table III) as a resource
// pool: a walk occupies one walker for its whole latency. Fig 17 sweeps
// the pool size.
type WalkerPool struct {
	freeAt []int64
	// WalkLatency is the cycles one walk takes once a walker is granted
	// (page tables assumed warm in L2).
	WalkLatency int64

	Walks       int64
	StallCycles int64

	walkLat *metrics.Histogram // request-to-done walk latency, if registered
}

// NewWalkerPool creates a pool of n walkers with the given walk latency.
func NewWalkerPool(n int, walkLatency int64) *WalkerPool {
	return &WalkerPool{freeAt: make([]int64, n), WalkLatency: walkLatency}
}

// Register publishes the pool's counters and the end-to-end walk latency
// histogram (walker-grant stall + walk itself).
func (w *WalkerPool) Register(r *metrics.Registry) {
	r.Int64("ptw.walks", "page-table walks started", &w.Walks)
	r.Int64("ptw.stall_cycles", "cycles walks waited for a free walker", &w.StallCycles)
	w.walkLat = r.NewHistogram("lat.ptw", "page-table walk latency from request to translation (cycles)")
}

// Walk starts a page walk no earlier than cycle at and returns the cycle
// the translation is available.
func (w *WalkerPool) Walk(at int64) int64 {
	w.Walks++
	best := 0
	for i, f := range w.freeAt {
		if f < w.freeAt[best] {
			best = i
		}
	}
	start := at
	if w.freeAt[best] > start {
		w.StallCycles += w.freeAt[best] - start
		start = w.freeAt[best]
	}
	done := start + w.WalkLatency
	w.freeAt[best] = done
	if w.walkLat != nil {
		w.walkLat.Observe(done - at)
	}
	return done
}
