package cache

// StridePrefetcher is the baseline L1-D stride prefetcher of Table III: a
// reference prediction table (Chen & Baer) indexed by load PC. On a
// confident striding load it prefetches a few iterations ahead. It covers
// the sequential offset/neighbor-array walks of the graph kernels but not
// the data-dependent indirect accesses — which is precisely the gap SVR
// and IMP compete to fill.
type StridePrefetcher struct {
	entries []strideEntry
	mask    int // len(entries)-1 when a power of two, else -1
	degree  int // lines prefetched ahead on a confident stride

	Issued int64
}

type strideEntry struct {
	pc       int
	valid    bool
	prevAddr uint64
	stride   int64
	conf     int8
}

// NewStridePrefetcher builds a table with the given entry count and
// prefetch degree.
func NewStridePrefetcher(entries, degree int) *StridePrefetcher {
	mask := -1
	if entries > 0 && entries&(entries-1) == 0 {
		mask = entries - 1
	}
	return &StridePrefetcher{entries: make([]strideEntry, entries), mask: mask, degree: degree}
}

// strideRecip[s] is ⌈2³²/s⌉. For every stride 0 < s < LineSize and
// numerator x < 4096, x*strideRecip[s]>>32 equals x/s exactly
// (TestStrideReciprocalExact), so Observe's closed form multiplies
// instead of dividing; its numerators stay below 2·LineSize.
var strideRecip = func() (r [LineSize]uint64) {
	for s := uint64(1); s < LineSize; s++ {
		r[s] = (1<<32 + s - 1) / s
	}
	return r
}()

// Observe is called for every demand load. It returns the addresses the
// prefetcher wants fetched (line-deduplicated, max degree).
func (s *StridePrefetcher) Observe(pc int, addr uint64, dst []uint64) []uint64 {
	// pc is a non-negative instruction index, so the mask is exactly the
	// modulo for power-of-two tables without the hardware divide.
	var idx int
	if s.mask >= 0 {
		idx = pc & s.mask
	} else {
		idx = pc % len(s.entries)
	}
	e := &s.entries[idx]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, valid: true, prevAddr: addr}
		return dst
	}
	stride := int64(addr) - int64(e.prevAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.prevAddr = addr

	if e.conf < 2 {
		return dst
	}
	// Confident: fetch the next `degree` distinct lines along the stride.
	lastLine := addr >> LineBits
	next := addr
	if st := e.stride; st > 0 && st < LineSize && addr < ^uint64(0)-64*LineSize {
		// Closed form of the step loop below for short positive strides
		// (the common forward array walks): jump straight to each line
		// crossing instead of stepping stride-by-stride. k counts the
		// steps the loop would have taken, so the 64-step cap and the
		// appended addresses are identical to the loop's.
		var k uint64
		for len(dst) < s.degree {
			need := (lastLine+1)<<LineBits - next
			dk := (need + uint64(st) - 1) * strideRecip[st] >> 32
			if k += dk; k > 64 {
				break
			}
			next += dk * uint64(st)
			lastLine = next >> LineBits
			dst = append(dst, next)
			s.Issued++
		}
		return dst
	}
	for i := 0; i < 64 && len(dst) < s.degree; i++ {
		next += uint64(e.stride)
		if line := next >> LineBits; line != lastLine {
			lastLine = line
			dst = append(dst, next)
			s.Issued++
		}
	}
	return dst
}
