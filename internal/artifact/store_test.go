package artifact

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func key(c Class, id string) Key { return Key{Class: c, ID: id} }

func TestGetPutHitMiss(t *testing.T) {
	s := New(1 << 20)
	if _, ok := s.Get(key(Image, "a")); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put(key(Image, "a"), "va", 10)
	v, ok := s.Get(key(Image, "a"))
	if !ok || v.(string) != "va" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := s.Stats()[Image]
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Errorf("stats %+v", st)
	}
}

// TestEvictionAccounting: inserts past the byte budget evict in LRU
// order, and every byte/entry/eviction counter stays consistent.
func TestEvictionAccounting(t *testing.T) {
	s := New(100)
	for i := 0; i < 5; i++ {
		s.Put(key(Image, fmt.Sprintf("k%d", i)), i, 30)
	}
	// 5×30 = 150 bytes over a 100-byte budget: the two least recently
	// used entries (k0, k1) must be gone.
	if _, ok := s.Get(key(Image, "k0")); ok {
		t.Error("k0 survived eviction")
	}
	if _, ok := s.Get(key(Image, "k1")); ok {
		t.Error("k1 survived eviction")
	}
	if _, ok := s.Get(key(Image, "k4")); !ok {
		t.Error("k4 (most recent) evicted")
	}
	st := s.Stats()[Image]
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 3 || st.Bytes != 90 {
		t.Errorf("resident %d entries / %d bytes, want 3 / 90", st.Entries, st.Bytes)
	}
	if s.Bytes() != 90 {
		t.Errorf("store bytes = %d, want 90", s.Bytes())
	}
}

// TestEvictionLRUTouch: a Get refreshes recency, changing the victim.
func TestEvictionLRUTouch(t *testing.T) {
	s := New(60)
	s.Put(key(Image, "a"), 1, 20)
	s.Put(key(Image, "b"), 2, 20)
	s.Put(key(Image, "c"), 3, 20)
	s.Get(key(Image, "a")) // a becomes most recent; b is now LRU
	s.Put(key(Image, "d"), 4, 20)
	if _, ok := s.Get(key(Image, "b")); ok {
		t.Error("b (LRU) survived")
	}
	if _, ok := s.Get(key(Image, "a")); !ok {
		t.Error("a (touched) evicted")
	}
}

// TestNeverEvictsLast: one artifact bigger than the whole budget still
// caches; only everything else goes.
func TestNeverEvictsLast(t *testing.T) {
	s := New(10)
	s.Put(key(Checkpoint, "big"), "x", 1000)
	if _, ok := s.Get(key(Checkpoint, "big")); !ok {
		t.Fatal("oversized sole entry evicted")
	}
	s.Put(key(Checkpoint, "big2"), "y", 2000)
	if _, ok := s.Get(key(Checkpoint, "big")); ok {
		t.Error("old entry should yield to the newer oversized one")
	}
	if _, ok := s.Get(key(Checkpoint, "big2")); !ok {
		t.Error("newest entry must survive")
	}
}

func TestReplaceSameKey(t *testing.T) {
	s := New(1 << 20)
	s.Put(key(Stream, "s"), "v1", 100)
	s.Put(key(Stream, "s"), "v2", 200)
	v, ok := s.Get(key(Stream, "s"))
	if !ok || v.(string) != "v2" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := s.Stats()[Stream]
	if st.Entries != 1 || st.Bytes != 200 {
		t.Errorf("resident %d entries / %d bytes, want 1 / 200", st.Entries, st.Bytes)
	}
}

// TestGetOrProduceSingleflight: N concurrent callers of one key run
// produce exactly once; one caller reports production, the rest report
// hit or joined-flight.
func TestGetOrProduceSingleflight(t *testing.T) {
	s := New(1 << 20)
	var produced int
	var mu sync.Mutex
	gate := make(chan struct{})
	const callers = 8
	outcomes := make([]Outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o := s.GetOrProduce(key(Result, "cell"), func() (any, int64) {
				<-gate // hold every sibling in the flight map
				mu.Lock()
				produced++
				mu.Unlock()
				return "res", 8
			})
			if v.(string) != "res" {
				t.Errorf("caller %d got %v", i, v)
			}
			outcomes[i] = o
		}()
	}
	close(gate)
	wg.Wait()
	if produced != 1 {
		t.Fatalf("produce ran %d times, want 1", produced)
	}
	var owners int
	for _, o := range outcomes {
		if !o.FromStore() {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d callers produced, want exactly 1 (outcomes %+v)", owners, outcomes)
	}
	st := s.Stats()[Result]
	if st.Produced != 1 || st.Hits+st.Waited != callers-1 {
		t.Errorf("stats %+v", st)
	}
}

// TestDisabledClass: a disabled class has no residency and no
// flight-sharing — every caller produces privately — and other classes
// are unaffected.
func TestDisabledClass(t *testing.T) {
	s := New(1 << 20)
	s.Put(key(Result, "r"), 1, 8)
	prev := s.SetClassEnabled(Result, false)
	if !prev {
		t.Fatal("class should start enabled")
	}
	if _, ok := s.Get(key(Result, "r")); ok {
		t.Error("disabled class served a resident entry")
	}
	var produced int
	for i := 0; i < 2; i++ {
		v, o := s.GetOrProduce(key(Result, "r"), func() (any, int64) { produced++; return 7, 8 })
		if o.FromStore() || v.(int) != 7 {
			t.Errorf("disabled class outcome %+v v=%v", o, v)
		}
	}
	if produced != 2 {
		t.Errorf("disabled class deduped production: %d", produced)
	}
	s.Put(key(Image, "img"), 1, 8)
	if _, ok := s.Get(key(Image, "img")); !ok {
		t.Error("sibling class affected by disable")
	}
	s.SetClassEnabled(Result, true)
	if _, ok := s.Get(key(Result, "r")); ok {
		t.Error("re-enabled class must start cold")
	}
}

func TestSetLimitEvicts(t *testing.T) {
	s := New(1 << 20)
	for i := 0; i < 4; i++ {
		s.Put(key(Image, fmt.Sprintf("k%d", i)), i, 25)
	}
	s.SetLimit(50)
	st := s.Stats()[Image]
	if st.Entries != 2 || st.Bytes != 50 || st.Evictions != 2 {
		t.Errorf("after SetLimit: %+v", st)
	}
	if s.Limit() != 50 {
		t.Errorf("Limit() = %d", s.Limit())
	}
}

func TestPurgeAndResetStats(t *testing.T) {
	s := New(1 << 20)
	s.Put(key(Stream, "a"), 1, 10)
	s.Put(key(Image, "b"), 2, 10)
	s.Purge(Stream)
	if _, ok := s.Get(key(Stream, "a")); ok {
		t.Error("purged entry survived")
	}
	if _, ok := s.Get(key(Image, "b")); !ok {
		t.Error("sibling class purged")
	}
	s.ResetStats(Stream)
	st := s.Stats()[Stream]
	if st.Hits != 0 || st.Misses != 0 || st.Produced != 0 {
		t.Errorf("ResetStats left counters: %+v", st)
	}
}

// TestTieDropsWithParent: an entry tied to another goes when that one
// is evicted or purged, whatever its own recency, and evictions count
// and reach the hook for both; one tied to a parent that is not resident
// as the value it was made from goes at once.
func TestTieDropsWithParent(t *testing.T) {
	s := New(100)
	var evicted []string
	s.SetEvictHook(func(ev EvictEvent) { evicted = append(evicted, ev.Key.ID) })
	root, mid, leaf := new(int), new(int), new(int)
	s.Put(key(Checkpoint, "root"), root, 40)
	s.Put(key(Checkpoint, "mid"), mid, 10)
	s.Tie(key(Checkpoint, "mid"), key(Checkpoint, "root"), root)
	s.Put(key(Checkpoint, "leaf"), leaf, 10)
	s.Tie(key(Checkpoint, "leaf"), key(Checkpoint, "mid"), mid)
	s.Put(key(Image, "other"), 1, 30)
	s.Get(key(Checkpoint, "leaf")) // most recent, yet it goes with root
	s.Put(key(Image, "big"), 2, 30)
	for _, id := range []string{"root", "mid", "leaf"} {
		if _, ok := s.Get(key(Checkpoint, id)); ok {
			t.Errorf("%s survived its root's eviction", id)
		}
	}
	if st := s.Stats()[Checkpoint]; st.Evictions != 3 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("checkpoint stats after the cascade: %+v", st)
	}
	if fmt.Sprint(evicted) != "[root mid leaf]" {
		t.Errorf("evict hook saw %v", evicted)
	}
	if s.Bytes() != 60 {
		t.Errorf("resident bytes %d, want 60", s.Bytes())
	}

	s.Put(key(Checkpoint, "root"), root, 10)
	s.Put(key(Checkpoint, "mid"), mid, 10)
	s.Tie(key(Checkpoint, "mid"), key(Checkpoint, "root"), root)
	s.Purge(Checkpoint)
	if st := s.Stats()[Checkpoint]; st.Entries != 0 || st.Evictions != 3 {
		t.Errorf("purge: %+v", st)
	}

	s.Put(key(Checkpoint, "root"), new(int), 10) // a re-produced root
	s.Put(key(Checkpoint, "mid"), mid, 10)
	s.Tie(key(Checkpoint, "mid"), key(Checkpoint, "root"), root)
	if _, ok := s.Get(key(Checkpoint, "mid")); ok {
		t.Error("an entry tied to a value no longer resident stayed")
	}
	s.Tie(key(Checkpoint, "gone"), key(Checkpoint, "root"), root) // no child: no-op
	if _, ok := s.Get(key(Checkpoint, "root")); !ok {
		t.Error("tying a missing child dropped the parent")
	}
}

func TestTotalAndRegister(t *testing.T) {
	s := New(1 << 20)
	s.Put(key(Image, "a"), 1, 10)
	s.Put(key(Stream, "b"), 2, 20)
	s.Get(key(Image, "a"))
	tot := s.Stats().Total()
	if tot.Entries != 2 || tot.Bytes != 30 || tot.Hits != 1 {
		t.Errorf("Total = %+v", tot)
	}

	reg := metrics.New()
	s.Register(reg, "artifact")
	snap := reg.Snapshot()
	if snap.Gauges["artifact.image.bytes"] != 10 {
		t.Errorf("registered gauge = %d, want 10", snap.Gauges["artifact.image.bytes"])
	}
	if snap.Gauges["artifact.stream.entries"] != 1 {
		t.Errorf("stream entries gauge = %d", snap.Gauges["artifact.stream.entries"])
	}
}
