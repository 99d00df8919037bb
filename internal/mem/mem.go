// Package mem provides the sparse byte-addressable memory image shared by
// the functional emulator and the timing models. The SVR engine also reads
// it directly to obtain speculative lane values during piggyback runahead
// (the hardware equivalent reads the same values out of the cache).
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// PageBits is the log2 of the backing-page size (not the architectural
// page size; that lives in the TLB model).
const PageBits = 16

// PageSize is the backing-page size in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// The page directory is a two-level radix tree over page numbers: the
// root indexes bits [leafBits, leafBits+rootBits) of the page number and
// each leaf holds 1<<leafBits page pointers. Together with the 16 page
// bits it maps the low 1 TiB of the address space with two dependent
// loads; the rare addresses above that (wild speculative pointers) fall
// back to a map.
const (
	leafBits  = 12
	rootBits  = 12
	leafSize  = 1 << leafBits
	rootSize  = 1 << rootBits
	radixPN   = 1 << (leafBits + rootBits) // first page number outside the radix
	leafShift = leafBits
	leafMask  = leafSize - 1
)

// page is one backing page. Pages are shared between a Memory and its
// clones: owner identifies the Memory allowed to write the data in place,
// and nil marks a page frozen by Clone — any writer must copy it first
// (copy-on-write). The data array is embedded so a page costs one
// allocation and one pointer chase.
type page struct {
	data  [PageSize]byte
	owner *Memory
}

type leaf [leafSize]*page

// pcacheSize is the number of direct-mapped page-cache entries; 16 covers
// the handful of simultaneous array streams a kernel walks without
// measurable lookup cost.
const pcacheSize = 16

type pcacheEntry struct {
	pn   uint64 // page number + 1; 0 = empty
	page *page
}

// Memory is a sparse, paged memory image. The zero value is not usable;
// call New.
type Memory struct {
	root     []*leaf          // two-level radix directory for pn < radixPN
	overflow map[uint64]*page // pages above the radix span, lazily allocated
	brk      uint64           // allocation cursor for Alloc

	// Direct-mapped page cache over the radix directory, indexed by the
	// low page-number bits. Each entry stores the page number plus one
	// (zero means invalid), so the hot compare needs no separate valid
	// bit. Multiple entries keep concurrently-walked streams (a kernel
	// reading one array while writing another) from thrashing a single
	// slot; writability is NOT cached — writePage rechecks ownership on
	// every hit, so Clone can freeze pages without invalidating entries.
	pcache [pcacheSize]pcacheEntry

	// mu serializes Clone against concurrent Clones of the same image
	// (the experiment scheduler clones one master per cell from many
	// goroutines). It is not taken on the access paths: a Memory may be
	// read and written by only one goroutine at a time.
	mu sync.Mutex
}

// New returns an empty memory image. Allocation starts at a non-zero base
// so that address 0 is never handed out (nil-pointer-like bugs in kernels
// then fault loudly in tests rather than aliasing array 0).
func New() *Memory {
	return &Memory{root: make([]*leaf, rootSize), brk: 0x10000}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. Memory is zero-initialized on first touch.
func (m *Memory) Alloc(n uint64, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	m.brk = base + n
	return base
}

// Brk returns the current allocation cursor (total footprint high-water mark).
func (m *Memory) Brk() uint64 { return m.brk }

// find returns the page for pn, or nil if never touched.
func (m *Memory) find(pn uint64) *page {
	if pn < radixPN {
		l := m.root[pn>>leafShift]
		if l == nil {
			return nil
		}
		return l[pn&leafMask]
	}
	return m.overflow[pn]
}

// install points the directory entry for pn at p.
func (m *Memory) install(pn uint64, p *page) {
	if pn < radixPN {
		li := pn >> leafShift
		l := m.root[li]
		if l == nil {
			l = new(leaf)
			m.root[li] = l
		}
		l[pn&leafMask] = p
	} else {
		if m.overflow == nil {
			m.overflow = make(map[uint64]*page)
		}
		m.overflow[pn] = p
	}
}

// readPage returns the page containing addr for reading, allocating a
// zero page on first touch.
func (m *Memory) readPage(addr uint64) *page {
	pn := addr >> PageBits
	e := &m.pcache[pn&(pcacheSize-1)]
	if e.pn == pn+1 {
		return e.page
	}
	p := m.find(pn)
	if p == nil {
		p = &page{owner: m}
		m.install(pn, p)
	}
	e.pn, e.page = pn+1, p
	return p
}

// writePage returns the page containing addr for writing: it allocates on
// first touch and copies a page shared with a clone (or a parent) before
// handing it out, so writes never reach a page another Memory can see.
func (m *Memory) writePage(addr uint64) *page {
	pn := addr >> PageBits
	e := &m.pcache[pn&(pcacheSize-1)]
	var p *page
	if e.pn == pn+1 {
		p = e.page
	} else {
		p = m.find(pn)
	}
	if p == nil {
		p = &page{owner: m}
		m.install(pn, p)
	} else if p.owner != m {
		np := &page{data: p.data, owner: m}
		m.install(pn, np)
		p = np
	}
	e.pn, e.page = pn+1, p
	return p
}

// Clone returns a copy-on-write clone of the memory image. The directory
// is copied (O(pages touched), not O(image bytes)) and every page becomes
// shared: the first write to a shared page — through the clone or the
// parent — copies just that page. The simulation harness builds each
// workload once and clones the image per machine configuration, since
// timing runs mutate memory through stores.
//
// Clone may be called for the same parent from several goroutines at
// once (the cell-parallel scheduler does); the pages it freezes are
// published to the clones under the parent's lock. The clone itself, like
// any Memory, must only be used by one goroutine at a time.
func (m *Memory) Clone() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Memory{root: make([]*leaf, rootSize), brk: m.brk}
	for li, l := range m.root {
		if l == nil {
			continue
		}
		nl := new(leaf)
		for i, p := range l {
			if p == nil {
				continue
			}
			if p.owner != nil {
				p.owner = nil // freeze: both sides now copy on write
			}
			nl[i] = p
		}
		c.root[li] = nl
	}
	if m.overflow != nil {
		c.overflow = make(map[uint64]*page, len(m.overflow))
		for pn, p := range m.overflow {
			if p.owner != nil {
				p.owner = nil
			}
			c.overflow[pn] = p
		}
	}
	// The parent's cached pages may now be frozen; the page cache carries
	// no writability claim (writePage rechecks owner), so it stays valid.
	return c
}

// Pages returns the number of distinct backing pages touched so far.
func (m *Memory) Pages() int {
	n := 0
	m.each(func(*page) { n++ })
	return n
}

// OwnedPages returns how many of those pages m alone holds: the ones it
// touched first or copied on write, which no clone or parent shares. A
// fresh clone owns none; Clone freezes the parent's, so count first.
func (m *Memory) OwnedPages() int {
	n := 0
	m.each(func(p *page) {
		if p.owner == m {
			n++
		}
	})
	return n
}

// Distinct returns how many distinct backing pages the memories
// reference between them: the pages they keep alive together, however
// many of them share each one.
func Distinct(ms ...*Memory) int {
	seen := make(map[*page]struct{})
	for _, m := range ms {
		m.each(func(p *page) { seen[p] = struct{}{} })
	}
	return len(seen)
}

// each calls f for every touched page.
func (m *Memory) each(f func(*page)) {
	for _, p := range m.overflow {
		f(p)
	}
	for _, l := range m.root {
		if l == nil {
			continue
		}
		for _, p := range l {
			if p != nil {
				f(p)
			}
		}
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		p := m.readPage(addr)
		off := addr & pageMask
		n := copy(dst, p.data[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		p := m.writePage(addr)
		off := addr & pageMask
		n := copy(p.data[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Read returns size bytes at addr zero-extended into a uint64.
// size must be 1, 2, 4 or 8.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	if off := addr & pageMask; off+uint64(size) <= PageSize {
		p := m.readPage(addr)
		switch size {
		case 1:
			return uint64(p.data[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p.data[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p.data[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p.data[off:])
		}
	}
	// Page-straddling access: slow path.
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:]))
	case 8:
		return binary.LittleEndian.Uint64(buf[:])
	}
	panic(fmt.Sprintf("mem: bad read size %d", size))
}

// Write stores the low size bytes of val at addr.
func (m *Memory) Write(addr uint64, val uint64, size uint8) {
	if off := addr & pageMask; off+uint64(size) <= PageSize {
		p := m.writePage(addr)
		switch size {
		case 1:
			p.data[off] = byte(val)
			return
		case 2:
			binary.LittleEndian.PutUint16(p.data[off:], uint16(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(p.data[off:], uint32(val))
			return
		case 8:
			binary.LittleEndian.PutUint64(p.data[off:], val)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	switch size {
	case 1, 2, 4, 8:
		m.WriteBytes(addr, buf[:size])
		return
	}
	panic(fmt.Sprintf("mem: bad write size %d", size))
}

// ReadI64 reads a signed 64-bit value.
func (m *Memory) ReadI64(addr uint64) int64 { return int64(m.Read(addr, 8)) }

// WriteI64 stores a signed 64-bit value.
func (m *Memory) WriteI64(addr uint64, v int64) { m.Write(addr, uint64(v), 8) }

// ReadF64 reads a float64.
func (m *Memory) ReadF64(addr uint64) float64 {
	return math.Float64frombits(m.Read(addr, 8))
}

// WriteF64 stores a float64.
func (m *Memory) WriteF64(addr uint64, v float64) {
	m.Write(addr, math.Float64bits(v), 8)
}
