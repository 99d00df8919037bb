// Package artifact is the unified content-addressed store behind the
// experiment scheduler: workload images, post-fast-forward checkpoints,
// recorded instruction streams and memoized cell results all live in one
// keyed, byte-budgeted LRU with per-class hit/miss/evict accounting and
// singleflight production. Before this package each of those caches was
// a private map inside internal/sim; unifying them gives concurrent
// tenants of the grid service one shared pool of warm state, one memory
// budget, and one observable set of counters.
package artifact

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Class partitions the key space by artifact kind. Classes share the
// byte budget and the LRU order but are accounted (and can be disabled)
// independently.
type Class string

// The artifact classes the simulator stores.
const (
	Image      Class = "image"      // built workload memory images
	Checkpoint Class = "checkpoint" // post-fast-forward machine checkpoints
	Stream     Class = "stream"     // recorded instruction streams
	Result     Class = "result"     // memoized cell results

	// Decoded named store-shared decoded chunks of recordings. Nothing
	// produces it any more (each cohort decodes into a private buffer);
	// it stays so callers that purge it keep compiling.
	Decoded Class = "decoded"
)

// Classes lists every class in stable display order.
func Classes() []Class { return []Class{Image, Checkpoint, Stream, Result} }

// Key addresses one artifact: its class plus a content hash (or any
// canonical encoding of everything the artifact's bytes depend on).
type Key struct {
	Class Class
	ID    string
}

// Outcome reports how a GetOrProduce call was satisfied. Exactly one of
// three situations holds: the value was resident (Hit), the caller
// joined another caller's in-flight production (Waited), or the caller
// produced the value itself (neither).
type Outcome struct {
	Hit    bool
	Waited bool
}

// FromStore reports whether the caller got the artifact without
// producing it: a resident hit or a joined in-flight production.
func (o Outcome) FromStore() bool { return o.Hit || o.Waited }

// ClassStats is a point-in-time accounting snapshot of one class.
type ClassStats struct {
	Hits        int64 // lookups served resident
	Misses      int64 // lookups that found nothing resident
	Waited      int64 // of Misses, satisfied by joining an in-flight production
	WaitedNanos int64 // cumulative wall time spent in those joins (singleflight convoying)
	Produced    int64 // values computed and inserted
	Evictions   int64 // entries dropped by the byte budget
	Entries     int   // resident entries now
	Bytes       int64 // resident bytes now
}

// Stats maps each class to its counters.
type Stats map[Class]ClassStats

// Total folds every class into one summary row.
func (s Stats) Total() ClassStats {
	var t ClassStats
	for _, cs := range s {
		t.Hits += cs.Hits
		t.Misses += cs.Misses
		t.Waited += cs.Waited
		t.WaitedNanos += cs.WaitedNanos
		t.Produced += cs.Produced
		t.Evictions += cs.Evictions
		t.Entries += cs.Entries
		t.Bytes += cs.Bytes
	}
	return t
}

type entry struct {
	v     any
	bytes int64
	tied  []Key // entries that go when this one goes (Tie)
}

type call struct {
	done chan struct{}
	v    any
}

type classCounters struct {
	hits, misses, waited, produced, evictions int64
	waitNanos                                 int64 // cumulative join-wait wall time
	entries                                   int
	bytes                                     int64
	disabled                                  bool
}

// Store is the content-addressed artifact cache. All methods are safe
// for concurrent use; produce functions run outside the store lock, so
// a production may itself fetch other artifacts (a cell result fetches
// its checkpoint, which fetches its image).
type Store struct {
	mu        sync.Mutex
	limit     int64
	bytes     int64
	entries   map[Key]*entry
	order     []Key // LRU order, least recently used first
	flight    map[Key]*call
	classes   map[Class]*classCounters
	evictHook func(EvictEvent)
}

// EvictEvent describes one entry dropped by the byte budget.
type EvictEvent struct {
	Key   Key
	Bytes int64
}

// SetEvictHook installs fn to observe evictions (nil disables). The hook
// runs with the store lock held, so it must return quickly and must not
// call back into the store.
func (s *Store) SetEvictHook(fn func(EvictEvent)) {
	s.mu.Lock()
	s.evictHook = fn
	s.mu.Unlock()
}

// addWait banks join-wait wall time against a class.
func (s *Store) addWait(c Class, d time.Duration) {
	s.mu.Lock()
	s.class(c).waitNanos += d.Nanoseconds()
	s.mu.Unlock()
}

// New returns an empty store evicting past limit bytes. The most
// recently used entry is never evicted, so one artifact larger than the
// whole budget still caches (and everything else goes).
func New(limit int64) *Store {
	return &Store{
		limit:   limit,
		entries: map[Key]*entry{},
		flight:  map[Key]*call{},
		classes: map[Class]*classCounters{},
	}
}

// class returns the counters of c, creating them on first use. Caller
// holds s.mu.
func (s *Store) class(c Class) *classCounters {
	cc, ok := s.classes[c]
	if !ok {
		cc = &classCounters{}
		s.classes[c] = cc
	}
	return cc
}

// touch moves k to the most-recently-used end of the LRU order. Caller
// holds s.mu.
func (s *Store) touch(k Key) {
	for i, o := range s.order {
		if o == k {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = k
			return
		}
	}
}

// Get returns the resident artifact for k, counting a hit or miss. A
// disabled class always misses.
func (s *Store) Get(k Key) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc := s.class(k.Class)
	if cc.disabled {
		cc.misses++
		return nil, false
	}
	e, ok := s.entries[k]
	if !ok {
		cc.misses++
		return nil, false
	}
	cc.hits++
	s.touch(k)
	return e.v, true
}

// Put inserts v under k (replacing any previous value) and evicts LRU
// entries past the byte budget. Disabled classes drop the insert.
func (s *Store) Put(k Key, v any, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc := s.class(k.Class)
	cc.produced++
	if cc.disabled {
		return
	}
	s.insert(k, v, bytes)
}

// insert stores the entry and enforces the budget. Caller holds s.mu.
func (s *Store) insert(k Key, v any, bytes int64) {
	var tied []Key
	if old, ok := s.entries[k]; ok {
		s.bytes -= old.bytes
		cc := s.class(k.Class)
		cc.bytes -= old.bytes
		cc.entries--
		s.touch(k)
		tied = old.tied
	} else {
		s.order = append(s.order, k)
	}
	s.entries[k] = &entry{v: v, bytes: bytes, tied: tied}
	s.bytes += bytes
	cc := s.class(k.Class)
	cc.bytes += bytes
	cc.entries++
	s.evictPastLimitLocked()
}

// evictPastLimitLocked drops LRU entries until the budget is met.
// Caller holds s.mu.
func (s *Store) evictPastLimitLocked() {
	for s.bytes > s.limit && len(s.order) > 1 {
		s.dropLocked(s.order[0], true)
	}
}

// Tie makes child go whenever parent goes, evicted by the budget or
// purged, so an artifact that shares parent's memory and is charged only
// for what it adds to it never outlives the charge for the rest. Call it
// once child is stored; if parent is not resident as parentValue, the
// value child was made from, child goes now. Values compare with ==, so
// parentValue is a pointer.
func (s *Store) Tie(child, parent Key, parentValue any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[child]; !ok {
		return
	}
	p, ok := s.entries[parent]
	if !ok || p.v != parentValue {
		s.dropLocked(child, true)
		return
	}
	if !slices.Contains(p.tied, child) {
		p.tied = append(p.tied, child)
	}
}

// dropLocked removes k and, after it, everything tied to it. An
// eviction is counted and reported to the evict hook; a purge is not.
// Caller holds s.mu.
func (s *Store) dropLocked(k Key, evicted bool) {
	e, ok := s.entries[k]
	if !ok {
		return
	}
	delete(s.entries, k)
	s.order = slices.DeleteFunc(s.order, func(o Key) bool { return o == k })
	s.bytes -= e.bytes
	cc := s.class(k.Class)
	cc.bytes -= e.bytes
	cc.entries--
	if evicted {
		cc.evictions++
		if s.evictHook != nil {
			s.evictHook(EvictEvent{Key: k, Bytes: e.bytes})
		}
	}
	for _, c := range e.tied {
		s.dropLocked(c, evicted)
	}
}

// GetOrProduce returns the artifact for k, producing it at most once
// across concurrent callers: a resident value is a hit, an in-flight
// production is joined (Waited), and otherwise this caller runs produce
// and the result is stored. When k's class is disabled there is no
// residency and no flight-sharing — every caller produces privately,
// which is exactly what a deliberately cold run wants. It is Begin,
// then Wait on a join or produce and Commit on a claim.
func (s *Store) GetOrProduce(k Key, produce func() (v any, bytes int64)) (any, Outcome) {
	v, out, t := s.Begin(k)
	switch {
	case t == nil:
		return v, out
	case !t.Owner():
		return t.Wait(), out
	}
	v, bytes := produce()
	t.Commit(v, bytes)
	return v, out
}

// Ticket is the handle of a split-phase lookup (Begin): either this
// caller owns the production slot and must Commit (or Abandon) it, or
// another caller is producing and Wait blocks for their value.
//
// Begin/Commit exist for the cohort driver: a cohort resolves K result
// keys up front, runs the claimed members together in lockstep, commits
// their results, and only then waits on the keys other workers had in
// flight. A plain GetOrProduce would force the cohort to nest K produce
// closures — or worse, deadlock when two members of one cohort share a
// content key (sweeps relabel identical configurations all the time).
type Ticket struct {
	s        *Store
	k        Key
	c        *call
	owner    bool
	disabled bool // class disabled: private production, no residency
	settled  bool
}

// Owner reports whether this caller holds the production slot.
func (t *Ticket) Owner() bool { return t.owner }

// Wait blocks until the owning caller commits, then returns the value.
// Only valid on non-owner tickets.
func (t *Ticket) Wait() any {
	t0 := time.Now()
	<-t.c.done
	t.s.addWait(t.k.Class, time.Since(t0))
	return t.c.v
}

// Commit publishes the produced value: it is inserted (unless the class
// is disabled), production is counted, and waiters wake. Only valid on
// owner tickets, once.
func (t *Ticket) Commit(v any, bytes int64) {
	if !t.owner || t.settled {
		panic("artifact: Commit on a non-owner or settled ticket")
	}
	t.settled = true
	s := t.s
	s.mu.Lock()
	cc := s.class(t.k.Class)
	cc.produced++
	if t.disabled {
		s.mu.Unlock()
		return
	}
	if !cc.disabled { // the class may have been disabled mid-production
		s.insert(t.k, v, bytes)
	}
	delete(s.flight, t.k)
	s.mu.Unlock()
	t.c.v = v
	close(t.c.done)
}

// Abandon releases an owner ticket without a value (the production
// failed): the flight is dropped and waiters wake with a nil value.
func (t *Ticket) Abandon() {
	if !t.owner || t.settled {
		return
	}
	t.settled = true
	if t.disabled {
		return
	}
	s := t.s
	s.mu.Lock()
	delete(s.flight, t.k)
	s.mu.Unlock()
	close(t.c.done)
}

// Begin is the split-phase form of GetOrProduce. It returns exactly one
// of three shapes:
//
//   - resident value: (v, Outcome{Hit: true}, nil) — nothing to do;
//   - join: (nil, Outcome{Waited: true}, t) with !t.Owner() — call
//     t.Wait() for the value once convenient;
//   - claim: (nil, Outcome{}, t) with t.Owner() — produce the value,
//     then t.Commit it.
//
// When k's class is disabled every caller gets a private claim ticket
// (no residency, no flight-sharing).
func (s *Store) Begin(k Key) (any, Outcome, *Ticket) {
	s.mu.Lock()
	cc := s.class(k.Class)
	if cc.disabled {
		cc.misses++
		s.mu.Unlock()
		return nil, Outcome{}, &Ticket{s: s, k: k, owner: true, disabled: true}
	}
	if e, ok := s.entries[k]; ok {
		cc.hits++
		s.touch(k)
		v := e.v
		s.mu.Unlock()
		return v, Outcome{Hit: true}, nil
	}
	cc.misses++
	if c, ok := s.flight[k]; ok {
		cc.waited++
		s.mu.Unlock()
		return nil, Outcome{Waited: true}, &Ticket{s: s, k: k, c: c}
	}
	c := &call{done: make(chan struct{})}
	s.flight[k] = c
	s.mu.Unlock()
	return nil, Outcome{}, &Ticket{s: s, k: k, c: c, owner: true}
}

// SetClassEnabled toggles residency and flight-sharing for one class and
// returns the previous setting. Disabling purges the class's resident
// entries (a re-enabled class starts cold); counters are preserved.
func (s *Store) SetClassEnabled(c Class, on bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc := s.class(c)
	prev := !cc.disabled
	cc.disabled = !on
	if !on {
		s.purgeLocked(c)
	}
	return prev
}

// Purge drops every resident entry of one class, and whatever is tied
// to them (counters kept).
func (s *Store) Purge(c Class) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked(c)
}

func (s *Store) purgeLocked(c Class) {
	for _, k := range slices.Clone(s.order) {
		if k.Class == c {
			s.dropLocked(k, false)
		}
	}
}

// ResetStats zeroes one class's counters (resident entries stay).
func (s *Store) ResetStats(c Class) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc := s.class(c)
	*cc = classCounters{disabled: cc.disabled, entries: cc.entries, bytes: cc.bytes}
}

// SetLimit changes the byte budget and applies it immediately.
func (s *Store) SetLimit(limit int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = limit
	s.evictPastLimitLocked()
}

// Limit returns the current byte budget.
func (s *Store) Limit() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// Bytes returns the resident bytes across all classes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots every class's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(Stats, len(s.classes))
	for c, cc := range s.classes {
		out[c] = ClassStats{
			Hits: cc.hits, Misses: cc.misses, Waited: cc.waited,
			WaitedNanos: cc.waitNanos,
			Produced:    cc.produced, Evictions: cc.evictions,
			Entries: cc.entries, Bytes: cc.bytes,
		}
	}
	return out
}

// Register publishes the store's counters into a metrics registry as
// computed gauges, named <prefix>.<class>.<counter>. The gauges read
// live state, so one registration keeps reporting forever.
func (s *Store) Register(reg *metrics.Registry, prefix string) {
	classes := Classes()
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		c := c
		stat := func(f func(ClassStats) int64) func() int64 {
			return func() int64 { return f(s.Stats()[c]) }
		}
		reg.GaugeFunc(prefix+"."+string(c)+".hits", "artifact store hits", stat(func(cs ClassStats) int64 { return cs.Hits }))
		reg.GaugeFunc(prefix+"."+string(c)+".misses", "artifact store misses", stat(func(cs ClassStats) int64 { return cs.Misses }))
		reg.GaugeFunc(prefix+"."+string(c)+".waited", "misses satisfied by joining an in-flight production", stat(func(cs ClassStats) int64 { return cs.Waited }))
		reg.GaugeFunc(prefix+"."+string(c)+".waited_ns", "cumulative wall time spent joining in-flight productions", stat(func(cs ClassStats) int64 { return cs.WaitedNanos }))
		reg.GaugeFunc(prefix+"."+string(c)+".produced", "artifacts produced", stat(func(cs ClassStats) int64 { return cs.Produced }))
		reg.GaugeFunc(prefix+"."+string(c)+".evictions", "entries evicted by the byte budget", stat(func(cs ClassStats) int64 { return cs.Evictions }))
		reg.GaugeFunc(prefix+"."+string(c)+".bytes", "resident bytes", stat(func(cs ClassStats) int64 { return cs.Bytes }))
		reg.GaugeFunc(prefix+"."+string(c)+".entries", "resident entries", stat(func(cs ClassStats) int64 { return int64(cs.Entries) }))
	}
}
