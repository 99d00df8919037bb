package cache

import (
	"fmt"
	"math/bits"
	"testing"
)

// Naive reference models of Cache and TLB: an explicit per-set LRU list
// (most recent first), a linear scan, no packed arrays and no MRU entry.
// The fuzzers below drive the real structures and these models with
// the same operation sequence and require every return value, every
// victim and the access/miss counters to agree.

type refLine struct {
	lineAddr uint64 // line-aligned address
	dirty    bool
	prefetch Origin
	touched  bool
}

type refCache struct {
	sets     [][]refLine // per set, most recently used first
	ways     int
	numSets  uint64
	Accesses int64
	Misses   int64
}

func newRefCache(sizeBytes, ways int) *refCache {
	numSets := sizeBytes / LineSize / ways
	return &refCache{sets: make([][]refLine, numSets), ways: ways, numSets: uint64(numSets)}
}

// find returns addr's set and the position of its line in it, or -1.
func (c *refCache) find(addr uint64) (set uint64, pos int) {
	la := addr &^ (LineSize - 1)
	set = (addr >> LineBits) % c.numSets
	for i, l := range c.sets[set] {
		if l.lineAddr == la {
			return set, i
		}
	}
	return set, -1
}

// touch moves the line at pos to the front of its set's LRU list.
func (c *refCache) touch(set uint64, pos int) *refLine {
	s := c.sets[set]
	l := s[pos]
	copy(s[1:pos+1], s[:pos])
	s[0] = l
	return &s[0]
}

func (c *refCache) Lookup(addr uint64, write, markTouched bool) (bool, Origin) {
	c.Accesses++
	set, pos := c.find(addr)
	if pos < 0 {
		c.Misses++
		return false, -1
	}
	l := c.touch(set, pos)
	if write {
		l.dirty = true
	}
	pf := l.prefetch
	if markTouched {
		l.touched = true
		l.prefetch = -1
	}
	return true, pf
}

// LookupRun is n Lookup(addr, false, true) calls.
func (c *refCache) LookupRun(addr uint64, n uint64) bool {
	hit := false
	for i := uint64(0); i < n; i++ {
		hit, _ = c.Lookup(addr, false, true)
	}
	return hit
}

func (c *refCache) Refresh(addr uint64) bool {
	set, pos := c.find(addr)
	if pos < 0 {
		return false
	}
	c.Accesses++
	c.touch(set, pos)
	return true
}

func (c *refCache) Peek(addr uint64) bool {
	_, pos := c.find(addr)
	return pos >= 0
}

// Fill installs addr's line as most recently used, evicting the least
// recently used line of a full set. A line already present only takes
// the dirty bit; its LRU position does not change.
func (c *refCache) Fill(addr uint64, dirty bool, origin Origin) Victim {
	set, pos := c.find(addr)
	if pos >= 0 {
		if dirty {
			c.sets[set][pos].dirty = true
		}
		return Victim{}
	}
	var v Victim
	s := c.sets[set]
	if len(s) == c.ways {
		old := s[len(s)-1]
		v = Victim{Valid: true, Dirty: old.dirty, Addr: old.lineAddr, Prefetch: old.prefetch, Touched: old.touched}
		s = s[:len(s)-1]
	}
	l := refLine{lineAddr: addr &^ (LineSize - 1), dirty: dirty, prefetch: origin}
	c.sets[set] = append([]refLine{l}, s...)
	return v
}

type refTLB struct {
	sets     [][]uint64 // vpns per set, most recently used first
	ways     int
	numSets  uint64
	Accesses int64
	Misses   int64
}

func newRefTLB(entries, ways int) *refTLB {
	numSets := entries / ways
	return &refTLB{sets: make([][]uint64, numSets), ways: ways, numSets: uint64(numSets)}
}

func (t *refTLB) find(addr uint64) (set uint64, pos int) {
	vpn := addr >> PageBits
	set = vpn % t.numSets
	for i, v := range t.sets[set] {
		if v == vpn {
			return set, i
		}
	}
	return set, -1
}

func (t *refTLB) Lookup(addr uint64) bool {
	t.Accesses++
	set, pos := t.find(addr)
	if pos < 0 {
		t.Misses++
		return false
	}
	s := t.sets[set]
	vpn := s[pos]
	copy(s[1:pos+1], s[:pos])
	s[0] = vpn
	return true
}

// LookupRun is n Lookup(addr) calls.
func (t *refTLB) LookupRun(addr uint64, n uint64) bool {
	hit := false
	for i := uint64(0); i < n; i++ {
		hit = t.Lookup(addr)
	}
	return hit
}

// Insert installs addr's page as most recently used, evicting the least
// recently used entry of a full set. A page already present is left
// where it is.
func (t *refTLB) Insert(addr uint64) {
	set, pos := t.find(addr)
	if pos >= 0 {
		return
	}
	s := t.sets[set]
	if len(s) == t.ways {
		s = s[:len(s)-1]
	}
	t.sets[set] = append([]uint64{addr >> PageBits}, s...)
}

// refAddr maps two fuzz bytes to an address in one of four sets of a
// structure with the given set bits and block size. Half the picks come
// from four hot tags, so blocks get re-used as well as evicted; a quarter
// from 16 tags; a quarter from 8 tags with bit 20 set, which alias low
// tags in any table indexed by the low bits of the block number.
func refAddr(b0, b1 byte, setBits, blockBits uint) uint64 {
	numSets := uint64(1) << setBits
	set := [4]uint64{0, 1 % numSets, 2 % numSets, numSets - 1}[b0&3]
	var tag uint64
	switch b0 >> 6 {
	case 0, 1:
		tag = uint64(b0>>2) & 3
	case 2:
		tag = uint64(b0>>2) & 15
	default:
		tag = uint64(b0>>2)&7 | 1<<20
	}
	return (tag<<setBits|set)<<blockBits | uint64(b1)%(1<<blockBits)
}

// FuzzCacheMatchesReference runs a random sequence of Lookup, LookupRun,
// Refresh, Peek and Fill over the L1-D and L2 and the naive model in
// lockstep. Each operation takes three bytes: the opcode and its flags,
// then two address bytes (see refAddr).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{3, 0, 0, 1, 0, 8, 3, 0, 0, 2, 0, 0})
	f.Add(uint8(1), []byte{3, 0x80, 1, 3, 0x84, 1, 3, 0x88, 1, 3, 0x8c, 1, 3, 0x90, 1, 0, 0x80, 1})
	f.Add(uint8(0), []byte{
		0x13, 0xc0, 0, 0x13, 0xc4, 0, 0x13, 0xc8, 0, 0x13, 0xcc, 0, 0x13, 0xd0, 0,
		1, 0xc4, 0, 0x0b, 0xc8, 0, 1, 0xc0, 0, 0x23, 0x00, 0, 2, 0xc0, 0, 1, 0xcc, 0})
	// Fill a set, run four hits on its oldest line, fill a fifth line:
	// the run must have made the second line the victim.
	f.Add(uint8(0), []byte{3, 0x00, 0, 3, 0x04, 0, 3, 0x08, 0, 3, 0x0c, 0, 0x1e, 0x00, 0, 3, 0x90, 0, 0, 0x04, 0, 0, 0x00, 0})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		// The hierarchy's own caches, configured as a run uses them.
		cfg := DefaultConfig()
		h := NewHierarchy(cfg)
		sh := [...]struct {
			name       string
			c          *Cache
			size, ways int
		}{{"L1D", h.L1D, cfg.L1Size, cfg.L1Ways}, {"L2", h.L2, cfg.L2Size, cfg.L2Ways}}[shape%2]
		c, ref := sh.c, newRefCache(sh.size, sh.ways)
		setBits := uint(bits.TrailingZeros64(ref.numSets))
		for i := 0; i+3 <= len(ops); i += 3 {
			op, addr := ops[i], refAddr(ops[i+1], ops[i+2], setBits, LineBits)
			var desc string
			switch op & 3 {
			case 0:
				write, mark := op&4 != 0, op&8 != 0
				hit, pf := c.Lookup(addr, write, mark)
				rhit, rpf := ref.Lookup(addr, write, mark)
				desc = fmt.Sprintf("Lookup(%#x, %v, %v) = %v, %v; reference %v, %v", addr, write, mark, hit, pf, rhit, rpf)
				if hit != rhit || pf != rpf {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			case 1:
				got, want := c.Refresh(addr), ref.Refresh(addr)
				desc = fmt.Sprintf("Refresh(%#x) = %v; reference %v", addr, got, want)
				if got != want {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			case 2:
				if op&4 != 0 {
					n := 1 + uint64(op>>3)
					got, want := c.LookupRun(addr, n), ref.LookupRun(addr, n)
					desc = fmt.Sprintf("LookupRun(%#x, %d) = %v; reference %v", addr, n, got, want)
					if got != want {
						t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
					}
					break
				}
				got, want := c.Peek(addr), ref.Peek(addr)
				desc = fmt.Sprintf("Peek(%#x) = %v; reference %v", addr, got, want)
				if got != want {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			case 3:
				dirty := op&4 != 0
				origin := Origin(int(op>>3)%(int(NumOrigins)+1) - 1) // -1 (demand) or an origin
				got, want := c.Fill(addr, dirty, origin), ref.Fill(addr, dirty, origin)
				desc = fmt.Sprintf("Fill(%#x, %v, %d) = %+v; reference %+v", addr, dirty, origin, got, want)
				if got != want {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			}
			if c.Accesses != ref.Accesses || c.Misses != ref.Misses {
				t.Fatalf("%s op %d: after %s: accesses/misses %d/%d, reference %d/%d",
					sh.name, i/3, desc, c.Accesses, c.Misses, ref.Accesses, ref.Misses)
			}
		}
	})
}

// FuzzTLBMatchesReference runs a random sequence of Lookup, LookupRun
// and Insert over the D-TLB and S-TLB and the naive model in lockstep.
// Each operation takes three bytes: the opcode, then two address bytes.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 0, 0, 0, 0, 4, 0})
	// Fill the D-TLB, miss on a new page, hit the LRU entry, then insert
	// the missed page: the insert must evict the entry that is LRU now.
	var seq []byte
	for tag := byte(0); tag < 16; tag++ {
		seq = append(seq, 1, 0x80|tag<<2, 0)
	}
	seq = append(seq, 0, 0xc0, 0, 0, 0x80, 0, 1, 0xc0, 0, 0, 0x80, 0)
	f.Add(uint8(0), seq)
	// The same with a two-hit run on the LRU entry before the insert.
	seq = append(seq[:48:48], 6, 0x80, 0, 1, 0xc0, 0, 0, 0x84, 0, 0, 0x80, 0)
	f.Add(uint8(0), seq)
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		// The hierarchy's own TLBs; the D-TLB is fully associative.
		cfg := DefaultConfig()
		h := NewHierarchy(cfg)
		sh := [...]struct {
			name          string
			tlb           *TLB
			entries, ways int
		}{{"DTLB", h.DTLB, cfg.DTLBEntries, cfg.DTLBEntries}, {"STLB", h.STLB, cfg.STLBEntries, cfg.STLBWays}}[shape%2]
		tlb, ref := sh.tlb, newRefTLB(sh.entries, sh.ways)
		setBits := uint(bits.TrailingZeros64(ref.numSets))
		for i := 0; i+3 <= len(ops); i += 3 {
			addr := refAddr(ops[i+1], ops[i+2], setBits, PageBits)
			var desc string
			switch op := ops[i]; {
			case op&1 != 0:
				tlb.Insert(addr)
				ref.Insert(addr)
				desc = fmt.Sprintf("Insert(%#x)", addr)
			case op&2 != 0:
				n := 1 + uint64(op>>2)
				got, want := tlb.LookupRun(addr, n), ref.LookupRun(addr, n)
				desc = fmt.Sprintf("LookupRun(%#x, %d) = %v; reference %v", addr, n, got, want)
				if got != want {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			default:
				got, want := tlb.Lookup(addr), ref.Lookup(addr)
				desc = fmt.Sprintf("Lookup(%#x) = %v; reference %v", addr, got, want)
				if got != want {
					t.Fatalf("%s op %d: %s", sh.name, i/3, desc)
				}
			}
			if tlb.Accesses != ref.Accesses || tlb.Misses != ref.Misses {
				t.Fatalf("%s op %d: after %s: accesses/misses %d/%d, reference %d/%d",
					sh.name, i/3, desc, tlb.Accesses, tlb.Misses, ref.Accesses, ref.Misses)
			}
		}
	})
}
