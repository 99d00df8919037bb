package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteSizes(t *testing.T) {
	m := New()
	for _, size := range []uint8{1, 2, 4, 8} {
		addr := m.Alloc(16, 8)
		want := uint64(0x1122334455667788)
		m.Write(addr, want, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		if got := m.Read(addr, size); got != want&mask {
			t.Errorf("size %d: got %#x, want %#x", size, got, want&mask)
		}
	}
}

func TestZeroInitialized(t *testing.T) {
	m := New()
	if got := m.Read(0x123456, 8); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // 8-byte access crosses the page boundary
	want := uint64(0xdeadbeefcafef00d)
	m.Write(addr, want, 8)
	if got := m.Read(addr, 8); got != want {
		t.Errorf("straddling read = %#x, want %#x", got, want)
	}
	// Verify byte placement across the boundary.
	if got := m.Read(PageSize-3, 1); got != 0x0d {
		t.Errorf("first byte = %#x, want 0x0d", got)
	}
	if got := m.Read(PageSize+4, 1); got != 0xde {
		t.Errorf("last byte = %#x, want 0xde", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	m := New()
	a := m.Alloc(100, 64)
	b := m.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x..%#x b=%#x", a, a+100, b)
	}
	if a == 0 {
		t.Error("allocation at address 0")
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment should panic")
		}
	}()
	New().Alloc(8, 3)
}

func TestFloatReadWrite(t *testing.T) {
	m := New()
	addr := m.Alloc(8, 8)
	m.WriteF64(addr, 3.14159)
	if got := m.ReadF64(addr); got != 3.14159 {
		t.Errorf("float round trip = %v", got)
	}
}

func TestSignedReadWrite(t *testing.T) {
	m := New()
	addr := m.Alloc(8, 8)
	m.WriteI64(addr, -42)
	if got := m.ReadI64(addr); got != -42 {
		t.Errorf("signed round trip = %d", got)
	}
}

func TestReadWriteBytesRoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte, offset uint16) bool {
		m := New()
		addr := uint64(offset) + PageSize - 8 // often straddles
		m.WriteBytes(addr, data)
		got := make([]byte, len(data))
		m.ReadBytes(addr, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArray(t *testing.T) {
	m := New()
	a := m.NewArray(100, 4)
	for i := uint64(0); i < a.N; i++ {
		a.Set(i, uint64(i*3))
	}
	for i := uint64(0); i < a.N; i++ {
		if a.Get(i) != i*3 {
			t.Fatalf("a[%d] = %d, want %d", i, a.Get(i), i*3)
		}
	}
	if a.Addr(1)-a.Addr(0) != 4 {
		t.Error("element stride wrong")
	}
	if a.Base%64 != 0 {
		t.Error("array not line-aligned")
	}
	if a.Bytes() != 400 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
}

func TestArrayFloatAndSigned(t *testing.T) {
	m := New()
	a := m.NewArray(4, 8)
	a.SetF(0, 2.5)
	a.SetI(1, -9)
	if a.GetF(0) != 2.5 || a.GetI(1) != -9 {
		t.Errorf("typed access: %v %v", a.GetF(0), a.GetI(1))
	}
}

func TestArrayFill(t *testing.T) {
	m := New()
	a := m.NewArray(10, 8)
	a.Fill(7)
	for i := uint64(0); i < 10; i++ {
		if a.Get(i) != 7 {
			t.Fatalf("a[%d]=%d after Fill(7)", i, a.Get(i))
		}
	}
}

// TestOwnedPages: a clone shares every page with its parent and owns
// none; each page it then writes or first touches becomes its own, and
// the parent, frozen by the Clone, owns none of the shared pages either.
// Distinct counts each shared page once.
func TestOwnedPages(t *testing.T) {
	parent := New()
	const pages = 8
	for i := uint64(0); i < pages; i++ {
		parent.Write(i*PageSize, i, 8)
	}
	if got := parent.OwnedPages(); got != pages {
		t.Fatalf("parent owns %d pages before Clone, want %d", got, pages)
	}
	child := parent.Clone()
	if got := child.OwnedPages(); got != 0 {
		t.Errorf("fresh clone owns %d pages, want 0", got)
	}
	if got := parent.OwnedPages(); got != 0 {
		t.Errorf("parent owns %d pages after Clone froze them, want 0", got)
	}
	for k := 1; k <= 3; k++ {
		child.Write(uint64(k)*PageSize+8, 1, 8) // copy a shared page
		if got := child.OwnedPages(); got != k {
			t.Errorf("after writing %d shared pages the clone owns %d", k, got)
		}
	}
	child.Write(3*PageSize+16, 2, 8) // an owned page again: no new copy
	child.Read(100*PageSize, 8)      // first touch allocates a page of its own
	if got, want := child.OwnedPages(), 4; got != want {
		t.Errorf("clone owns %d pages, want %d", got, want)
	}
	if got := child.Pages(); got != pages+1 {
		t.Errorf("clone references %d pages, want %d", got, pages+1)
	}
	// Together they keep the parent's pages, the clone's copies of three
	// of them and its new page alive.
	if got, want := Distinct(parent, child), pages+4; got != want {
		t.Errorf("parent and clone keep %d distinct pages, want %d", got, want)
	}
}
