package cache

import (
	"math/rand"
	"testing"
)

// TestWarmFetchLastILine: after every warmed fetch, the last fetched
// instruction line is the one the timed fetch path leaves on the same
// sequence. It decides whether a region's first timed L1-I miss counts
// as sequential (hidden by fetch-ahead). The sequence opens with line X
// missed, line Y missed and line X hit, so a stretch ends on an unfolded
// hit; random jumps and straight-line runs follow.
func TestWarmFetchLastILine(t *testing.T) {
	const x, y = 0x100000, 0x180000
	seq := []uint64{x, y, x + 8}
	rng := rand.New(rand.NewSource(3))
	pc := uint64(0x100000)
	for i := 0; i < 20000; i++ {
		if rng.Intn(16) == 0 {
			pc = 0x100000 + uint64(rng.Intn(1<<16))*4 // jump
		} else {
			pc += 4
		}
		seq = append(seq, pc)
	}
	timed, warm := NewHierarchy(DefaultConfig()), NewHierarchy(DefaultConfig())
	for i, addr := range seq {
		timed.FetchInstr(addr, int64(i)*100)
		warm.WarmFetchInstr(addr)
		if warm.lastILine != timed.lastILine {
			t.Fatalf("fetch %d of %#x: warmed lastILine %#x, timed %#x",
				i, addr, warm.lastILine, timed.lastILine)
		}
	}
}
