package mem

import "encoding/binary"

// Array is a typed view over a region of the memory image. Workload
// builders use it to lay out CSR graphs, hash tables and matrices, and
// tests use it to check results the kernels computed.
type Array struct {
	m    *Memory
	Base uint64
	Elem uint8 // element size in bytes
	N    uint64
}

// NewArray allocates an array of n elements of elem bytes each, aligned to
// a cache line (64 bytes) so element 0 starts a line.
func (m *Memory) NewArray(n uint64, elem uint8) Array {
	base := m.Alloc(n*uint64(elem), 64)
	return Array{m: m, Base: base, Elem: elem, N: n}
}

// On returns the same array in image m: a clone of the image it was
// allocated in, or the image a run of the program left behind.
func (a Array) On(m *Memory) Array {
	a.m = m
	return a
}

// Addr returns the address of element i.
func (a Array) Addr(i uint64) uint64 { return a.Base + i*uint64(a.Elem) }

// Get reads element i zero-extended.
func (a Array) Get(i uint64) uint64 { return a.m.Read(a.Addr(i), a.Elem) }

// Set writes element i.
func (a Array) Set(i uint64, v uint64) { a.m.Write(a.Addr(i), v, a.Elem) }

// GetI reads element i as a signed value (only meaningful for Elem==8).
func (a Array) GetI(i uint64) int64 { return int64(a.Get(i)) }

// SetI writes a signed value to element i.
func (a Array) SetI(i uint64, v int64) { a.Set(i, uint64(v)) }

// GetF reads element i as a float64 (Elem must be 8).
func (a Array) GetF(i uint64) float64 { return a.m.ReadF64(a.Addr(i)) }

// SetF writes a float64 to element i (Elem must be 8).
func (a Array) SetF(i uint64, v float64) { a.m.WriteF64(a.Addr(i), v) }

// Bytes returns the total footprint of the array in bytes.
func (a Array) Bytes() uint64 { return a.N * uint64(a.Elem) }

// Fill sets every element to v.
func (a Array) Fill(v uint64) { a.SetEach(func(uint64) uint64 { return v }) }

// SetEach sets every element i to f(i), in index order, a page at a time:
// one page lookup per page the array spans, not one per element. It
// writes the same bytes and touches the same pages as Set on each
// element, which is what it falls back to for an element that straddles
// a page or is neither 4 nor 8 bytes wide.
func (a Array) SetEach(f func(i uint64) uint64) {
	size := uint64(a.Elem)
	for i := uint64(0); i < a.N; {
		addr := a.Addr(i)
		off := addr & pageMask
		n := min(a.N-i, (PageSize-off)/size) // elements wholly on this page
		if n == 0 || (size != 4 && size != 8) {
			a.Set(i, f(i))
			i++
			continue
		}
		b := a.m.writePage(addr).data[off : off+n*size]
		if size == 4 {
			for j := 0; j < len(b); j += 4 {
				binary.LittleEndian.PutUint32(b[j:], uint32(f(i)))
				i++
			}
		} else {
			for j := 0; j < len(b); j += 8 {
				binary.LittleEndian.PutUint64(b[j:], f(i))
				i++
			}
		}
	}
}
