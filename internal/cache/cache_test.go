package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", 1<<12, 4, 8) // 4 KiB, 4-way: 16 sets
	addr := uint64(0x1000)
	if hit, _ := c.Lookup(addr, false, true); hit {
		t.Fatal("cold cache should miss")
	}
	c.Fill(addr, false, -1)
	if hit, _ := c.Lookup(addr, false, true); !hit {
		t.Fatal("filled line should hit")
	}
	// Same line, different offset.
	if hit, _ := c.Lookup(addr+63, false, true); !hit {
		t.Fatal("same line should hit")
	}
	if hit, _ := c.Lookup(addr+64, false, true); hit {
		t.Fatal("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 4*64*4, 4, 8) // 4 sets, 4 ways
	// 5 lines mapping to the same set: stride = sets*LineSize = 256.
	base := uint64(0x10000)
	for i := uint64(0); i < 4; i++ {
		c.Fill(base+i*256, false, -1)
	}
	// Touch line 0 to make line 1 LRU.
	c.Lookup(base, false, true)
	v := c.Fill(base+4*256, false, -1)
	if !v.Valid || v.Addr != base+1*256 {
		t.Fatalf("victim = %+v, want line %#x", v, base+256)
	}
	if hit, _ := c.Lookup(base, false, true); !hit {
		t.Error("recently used line was evicted")
	}
	if hit, _ := c.Lookup(base+256, false, true); hit {
		t.Error("LRU line still present")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache("t", 4*64, 1, 8) // direct-mapped, 4 sets
	c.Fill(0x1000, false, -1)
	c.Lookup(0x1000, true, true) // dirty it
	v := c.Fill(0x1000+4*64, false, -1)
	if !v.Valid || !v.Dirty {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
	if v.Addr != 0x1000 {
		t.Fatalf("victim addr = %#x, want 0x1000", v.Addr)
	}
}

func TestVictimAddrReconstruction(t *testing.T) {
	if err := quick.Check(func(raw uint32) bool {
		c := NewCache("t", 1<<14, 4, 8)
		addr := uint64(raw) &^ (LineSize - 1)
		c.Fill(addr, false, -1)
		// Fill 4 more conflicting lines; one eviction must return addr.
		setStride := uint64(1 << 12) // sets(64)*64B... 16KiB/4way=64 sets → 4KiB stride
		seen := false
		for i := uint64(1); i <= 4; i++ {
			v := c.Fill(addr+i*setStride, false, -1)
			if v.Valid && v.Addr == addr {
				seen = true
			}
		}
		return seen
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeAndOccupancy(t *testing.T) {
	c := NewCache("t", 1<<12, 4, 4)
	start, idx := c.MSHRAcquire(0x4000, 100)
	if start != 100 {
		t.Fatalf("uncontended acquire start = %d", start)
	}
	c.MSHRComplete(idx, 200)
	if ready, ok := c.MSHRLookup(0x4000, 150); !ok || ready != 200 {
		t.Fatalf("merge lookup = %d, %v", ready, ok)
	}
	if ready, ok := c.MSHRLookup(0x4040, 150); ok {
		t.Fatalf("different line should not merge, got %d", ready)
	}
	if n := c.MSHROccupancy(150); n != 1 {
		t.Fatalf("occupancy = %d", n)
	}
	if _, ok := c.MSHRLookup(0x4000, 250); ok {
		t.Fatal("completed MSHR should not merge")
	}
}

func TestMSHRSaturationStalls(t *testing.T) {
	c := NewCache("t", 1<<12, 4, 2)
	_, i0 := c.MSHRAcquire(0x1000, 10)
	c.MSHRComplete(i0, 110)
	_, i1 := c.MSHRAcquire(0x2000, 10)
	c.MSHRComplete(i1, 120)
	// Third miss at cycle 10 must wait for the first MSHR to free at 110.
	start, i2 := c.MSHRAcquire(0x3000, 10)
	if start != 110 {
		t.Fatalf("saturated acquire start = %d, want 110", start)
	}
	c.MSHRComplete(i2, 210)
	if c.MSHRStallCycles != 100 {
		t.Errorf("stall cycles = %d, want 100", c.MSHRStallCycles)
	}
}

func TestTLBBasic(t *testing.T) {
	tlb := NewTLB("t", 16, 16)
	addr := uint64(0x123456)
	if tlb.Lookup(addr) {
		t.Fatal("cold TLB should miss")
	}
	tlb.Insert(addr)
	if !tlb.Lookup(addr) {
		t.Fatal("inserted page should hit")
	}
	if !tlb.Lookup(addr + 0xfff - (addr & 0xfff)) {
		t.Fatal("same page should hit")
	}
	if tlb.Lookup(addr + 1<<PageBits) {
		t.Fatal("next page should miss")
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB("t", 4, 4)
	for i := uint64(0); i < 4; i++ {
		tlb.Insert(i << PageBits)
	}
	tlb.Lookup(0) // page 0 now MRU
	tlb.Insert(4 << PageBits)
	if !tlb.Lookup(0) {
		t.Error("MRU page evicted")
	}
	if tlb.Lookup(1 << PageBits) {
		t.Error("LRU page survived")
	}
}

func TestWalkerPoolSerializes(t *testing.T) {
	w := NewWalkerPool(2, 50)
	d1 := w.Walk(0)
	d2 := w.Walk(0)
	d3 := w.Walk(0)
	if d1 != 50 || d2 != 50 {
		t.Fatalf("two walkers should run in parallel: %d %d", d1, d2)
	}
	if d3 != 100 {
		t.Fatalf("third walk = %d, want 100 (queued)", d3)
	}
	if w.Walks != 3 {
		t.Errorf("walks = %d", w.Walks)
	}
}

func TestStridePrefetcherDetects(t *testing.T) {
	s := NewStridePrefetcher(16, 4)
	var got []uint64
	// Stride of 8 bytes from PC 5: needs a few observations for confidence.
	for i := uint64(0); i < 20; i++ {
		got = s.Observe(5, 0x1000+i*8, got[:0])
	}
	if len(got) == 0 {
		t.Fatal("confident stride produced no prefetches")
	}
	// All prefetches must be ahead of the last access and line-distinct.
	last := uint64(0x1000 + 19*8)
	seen := map[uint64]bool{last >> LineBits: true}
	for _, a := range got {
		if a <= last {
			t.Errorf("prefetch %#x not ahead of %#x", a, last)
		}
		line := a >> LineBits
		if seen[line] {
			t.Errorf("duplicate line %#x", line)
		}
		seen[line] = true
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	s := NewStridePrefetcher(16, 4)
	addrs := []uint64{0x1000, 0x9210, 0x3333, 0x7777, 0x2468, 0xabc0}
	var got []uint64
	for _, a := range addrs {
		got = s.Observe(7, a, got[:0])
	}
	if len(got) != 0 {
		t.Errorf("random pattern produced %d prefetches", len(got))
	}
}

func TestTrackerAccuracy(t *testing.T) {
	tr := NewTracker()
	tr.Mark(0x1000, OriginSVR)
	tr.Mark(0x2000, OriginSVR)
	tr.Mark(0x3000, OriginIMP)
	tr.Touch(0x1010) // same line as 0x1000
	tr.Evict(0x2000)
	tr.Evict(0x3000)

	svr := tr.Stats[OriginSVR]
	if svr.Issued != 2 || svr.Used != 1 || svr.EvictedUnused != 1 {
		t.Fatalf("svr stats = %+v", svr)
	}
	if acc := svr.Accuracy(); acc != 0.5 {
		t.Errorf("svr accuracy = %v, want 0.5", acc)
	}
	if imp := tr.Stats[OriginIMP]; imp.EvictedUnused != 1 {
		t.Errorf("imp stats = %+v", imp)
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d", tr.Pending())
	}
	// Double-touch should not double-count.
	tr.Touch(0x1000)
	if tr.Stats[OriginSVR].Used != 1 {
		t.Error("touch on untagged line counted")
	}
}

// TestStrideReciprocalExact checks the reciprocal table Observe divides
// with: exact for every stride below LineSize and numerator below 4096.
func TestStrideReciprocalExact(t *testing.T) {
	for s := uint64(1); s < LineSize; s++ {
		for x := uint64(0); x < 4096; x++ {
			if got := x * strideRecip[s] >> 32; got != x/s {
				t.Fatalf("%d/%d: reciprocal gives %d, want %d", x, s, got, x/s)
			}
		}
	}
}

// TestStrideClosedFormMatchesStepLoop checks Observe's closed form for
// short positive strides against the stride-by-stride step loop it
// replaces: the same addresses, in order, for every stride and start
// offset within a line.
func TestStrideClosedFormMatchesStepLoop(t *testing.T) {
	const degree = 4
	for st := uint64(1); st < LineSize; st++ {
		for off := uint64(0); off < LineSize; off++ {
			s := NewStridePrefetcher(16, degree)
			var got []uint64
			addr := 0x10000 + off
			for i := 0; i < 4; i++ {
				got = s.Observe(3, addr, got[:0])
				addr += st
			}
			addr -= st
			var want []uint64
			next, lastLine := addr, addr>>LineBits
			for i := 0; i < 64 && len(want) < degree; i++ {
				next += st
				if line := next >> LineBits; line != lastLine {
					lastLine = line
					want = append(want, next)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("stride %d offset %d: prefetches %#x, want %#x", st, off, got, want)
			}
		}
	}
}
