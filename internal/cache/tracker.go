package cache

import "repro/internal/metrics"

// PFStats aggregates prefetch effectiveness for one origin.
type PFStats struct {
	Issued        int64 // prefetches that fetched a line from DRAM
	Used          int64 // prefetched lines demand-touched before LLC eviction
	EvictedUnused int64 // prefetched lines evicted from the LLC untouched
}

// Accuracy returns Used / (Used + EvictedUnused) — the paper's prefetch
// accuracy definition (§VI-C): the fraction of prefetched cache lines
// accessed by the core before being evicted from the LLC.
func (s PFStats) Accuracy() float64 {
	den := s.Used + s.EvictedUnused
	if den == 0 {
		return 1
	}
	return float64(s.Used) / float64(den)
}

// Tracker implements the prefetch tags of §IV-A7: it records, per line
// brought in by a prefetch, whether the main program touched it before it
// left the last-level cache. The SVR accuracy monitor polls it.
//
// The tag set lives in a flat open-addressed hash table (linear probing,
// backward-shift deletion) instead of a Go map: Touch runs once per
// demand access on prefetching machines, and the dense probe sequence
// beats the map's bucket indirection there.
type Tracker struct {
	keys    []uint64 // lineAddr+1 per slot, 0 = empty; power-of-two length
	origins []Origin // origin per occupied slot
	n       int      // occupied slots
	mask    uint64   // len(keys)-1
	shift   uint     // 64 - log2(len(keys)), for Fibonacci hashing

	Stats [NumOrigins]PFStats
}

// trackerSizeHint pre-sizes the tag table for the steady-state population
// of outstanding prefetched lines (bounded by the LLC capacity a few
// thousand lines; runs rarely exceed a few hundred unused tags), so the
// table does not rehash-grow during the measurement window.
const trackerSizeHint = 1 << 10

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	t := &Tracker{}
	t.initTable(trackerSizeHint)
	return t
}

func (t *Tracker) initTable(capacity int) {
	t.keys = make([]uint64, capacity)
	t.origins = make([]Origin, capacity)
	t.n = 0
	t.mask = uint64(capacity - 1)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

// home returns the preferred slot for a key (Fibonacci hashing: the
// multiply spreads line addresses that differ only in low bits).
func (t *Tracker) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the slot holding key, or the empty slot where it would be
// inserted. The table never fills (grow keeps load ≤ 3/4), so the probe
// always terminates.
func (t *Tracker) find(key uint64) (slot uint64, ok bool) {
	i := t.home(key)
	for {
		k := t.keys[i]
		if k == 0 {
			return i, false
		}
		if k == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// del vacates a slot with backward-shift deletion: subsequent probe-chain
// entries slide back so every remaining key stays reachable from its home.
func (t *Tracker) del(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		// Move j's entry into the hole iff its home precedes the hole in
		// probe order (cyclic distance home→j spans the hole).
		if (j-t.home(k))&t.mask >= (j-i)&t.mask {
			t.keys[i] = k
			t.origins[i] = t.origins[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.n--
}

func (t *Tracker) grow() {
	oldKeys, oldOrigins := t.keys, t.origins
	t.initTable(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k != 0 {
			j, _ := t.find(k)
			t.keys[j] = k
			t.origins[j] = oldOrigins[i]
			t.n++
		}
	}
}

// Mark tags a line fetched from DRAM by a prefetch of the given origin.
func (t *Tracker) Mark(addr uint64, origin Origin) {
	lineAddr := addr &^ (LineSize - 1)
	i, dup := t.find(lineAddr + 1)
	if dup {
		return
	}
	t.keys[i] = lineAddr + 1
	t.origins[i] = origin
	t.n++
	if 4*t.n > 3*len(t.keys) {
		t.grow()
	}
	t.Stats[origin].Issued++
}

// Touch records a demand access: if the line was a pending prefetch it
// counts as used and the tag is cleared. The empty-table early-out keeps
// the per-access probe off the hot path of prefetch-free machines.
func (t *Tracker) Touch(addr uint64) {
	if t.n == 0 {
		return
	}
	lineAddr := addr &^ (LineSize - 1)
	if i, ok := t.find(lineAddr + 1); ok {
		t.Stats[t.origins[i]].Used++
		t.del(i)
	}
}

// Evict records an LLC eviction: an untouched prefetched line counts
// against accuracy.
func (t *Tracker) Evict(addr uint64) {
	if t.n == 0 {
		return
	}
	lineAddr := addr &^ (LineSize - 1)
	if i, ok := t.find(lineAddr + 1); ok {
		t.Stats[t.origins[i]].EvictedUnused++
		t.del(i)
	}
}

// Pending returns the number of outstanding unused prefetched lines.
func (t *Tracker) Pending() int { return t.n }

// PendingFrom returns how many of those lines origin o prefetched.
func (t *Tracker) PendingFrom(o Origin) int {
	n := 0
	if t.n > 0 {
		for i, k := range t.keys {
			if k != 0 && t.origins[i] == o {
				n++
			}
		}
	}
	return n
}

// each calls f for every outstanding tag, in table order.
func (t *Tracker) each(f func(lineAddr uint64, o Origin)) {
	for i, k := range t.keys {
		if k != 0 {
			f(k-1, t.origins[i])
		}
	}
}

// setTag installs a tag without touching stats — warm-state restore only.
func (t *Tracker) setTag(lineAddr uint64, o Origin) {
	i, dup := t.find(lineAddr + 1)
	if dup {
		t.origins[i] = o
		return
	}
	t.keys[i] = lineAddr + 1
	t.origins[i] = o
	t.n++
	if 4*t.n > 3*len(t.keys) {
		t.grow()
	}
}

// resetTags drops all tags but keeps stats — warm-state restore only.
func (t *Tracker) resetTags() {
	clear(t.keys)
	t.n = 0
}

// Register publishes per-origin prefetch-accuracy counters
// ("pf.<origin>.*") and a gauge of outstanding unused prefetched lines.
// Registry.Reset zeroes the counters but keeps the outstanding tags, the
// same windowing the old ResetStats provided.
func (t *Tracker) Register(r *metrics.Registry) {
	for o := Origin(0); o < NumOrigins; o++ {
		s := &t.Stats[o]
		name := o.String()
		r.Int64("pf."+name+".issued", name+" prefetches that fetched a line from DRAM", &s.Issued)
		r.Int64("pf."+name+".used", name+"-prefetched lines demand-touched before LLC eviction", &s.Used)
		r.Int64("pf."+name+".evicted_unused", name+"-prefetched lines evicted from the LLC untouched", &s.EvictedUnused)
	}
	r.GaugeFunc("pf.pending", "outstanding prefetched lines not yet demand-touched",
		func() int64 { return int64(t.n) })
}
