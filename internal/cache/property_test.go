package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCacheLookupPeekAgree: after any access sequence, a line reported
// hit by Peek must be found again by Peek (probing is side-effect-free on
// presence), and Lookup hits must agree with Peek.
func TestCacheLookupPeekAgree(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("p", 1<<12, 4, 8)
		addrs := make([]uint64, 64)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 14))
		}
		for i := 0; i < 500; i++ {
			a := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(3) {
			case 0:
				c.Fill(a, rng.Intn(2) == 0, -1)
			case 1:
				hit, _ := c.Lookup(a, false, true)
				if hit != c.Peek(a) {
					return false
				}
			case 2:
				if c.Peek(a) != c.Peek(a) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCacheCapacityInvariant: a set never holds more distinct lines than
// its associativity — filling W+1 conflicting lines always evicts.
func TestCacheCapacityInvariant(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 4
		c := NewCache("p", ways*64*16, ways, 8) // 16 sets
		setStride := uint64(16 * 64)
		base := uint64(rng.Intn(16)) * 64 // a random set
		var lines []uint64
		for i := uint64(0); i < ways+3; i++ {
			a := base + i*setStride
			c.Fill(a, false, -1)
			lines = append(lines, a)
		}
		present := 0
		for _, a := range lines {
			if c.Peek(a) {
				present++
			}
		}
		return present == ways
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMSHRNeverExceedsCapacity under random acquire/complete interleaving.
func TestMSHRNeverExceedsCapacity(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 4
		c := NewCache("p", 1<<12, 4, cap)
		now := int64(0)
		for i := 0; i < 200; i++ {
			now += int64(rng.Intn(20))
			addr := uint64(rng.Intn(64)) << LineBits
			if _, ok := c.MSHRLookup(addr, now); ok {
				continue
			}
			start, idx := c.MSHRAcquire(addr, now)
			if start < now {
				return false // time cannot go backwards
			}
			c.MSHRComplete(idx, start+int64(rng.Intn(100))+1)
			if c.MSHROccupancy(start) > cap {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTrackerConservation: Issued == Used + EvictedUnused + Pending at
// all times, per origin.
func TestTrackerConservation(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker()
		for i := 0; i < 300; i++ {
			a := uint64(rng.Intn(128)) << LineBits
			switch rng.Intn(3) {
			case 0:
				tr.Mark(a, Origin(rng.Intn(int(NumOrigins))))
			case 1:
				tr.Touch(a)
			case 2:
				tr.Evict(a)
			}
			var issued, resolved int64
			for o := Origin(0); o < NumOrigins; o++ {
				s := tr.Stats[o]
				if s.Issued != s.Used+s.EvictedUnused+int64(tr.PendingFrom(o)) {
					return false
				}
				issued += s.Issued
				resolved += s.Used + s.EvictedUnused
			}
			if issued != resolved+int64(tr.Pending()) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
