package graphs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// csrDigest hashes a CSR's Offsets then Neighbors, little-endian.
func csrDigest(g *CSR) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, g.Offsets)
	_ = binary.Write(h, binary.LittleEndian, g.Neighbors)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestInputDigests pins every input byte for byte at the vertex counts of
// workloads.TinyScale (2^9) and sim.QuickParams (2^16), seed 42. The
// digests were generated before the generator's quadrant pick and the
// per-vertex sort were rewritten; a change to either that moves one RNG
// draw or one comparison shows here.
func TestInputDigests(t *testing.T) {
	want := map[string]string{
		"KR/512":    "07634964415321ac4cd248a8b5452b2d6c16338de4ebc24c7a800815ca5a5f4f",
		"LJN/512":   "02c393e39b95e63b37f1348bb5d76b966651a870fde3900e941ce01acbb877ce",
		"ORK/512":   "70f2f664c6a98ec56a038c6681c2ef47fefa11ae346ee4f7b856f315827feffb",
		"TW/512":    "d4e0b997d15ed271fe12eead5c8f49638c005a07d2b25801451d5ee96a215d7f",
		"UR/512":    "8ec8fc39c4389c6b511537c1c9dad81d4a54524e08f74c8087b40d623293b4bb",
		"KR/65536":  "9539ba25b79b16ff87649de05bb2b3d018064c89e82f7b30743cc9b5dccf3e9d",
		"LJN/65536": "80803b228a3d84f37da9b408eba50203f2e050c330c966471c6cdb27112d0056",
		"ORK/65536": "146aa77348a8277a7645bd8a0df942a610a6f2c47f641a49b6743e7c2bc1311e",
		"TW/65536":  "c47f78153014bbd01653868fb1725d8a7075b37b2c378b49105eab6e57d68da0",
		"UR/65536":  "0bbdcd3297539edbaea4d21cb78bddf2dc90fcaff7cbb8ae6a865c479233bb28",
	}
	for _, n := range []int{1 << 9, 1 << 16} {
		for _, in := range Inputs {
			name := fmt.Sprintf("%s/%d", in, n)
			if got := csrDigest(build(in, n, 42)); got != want[name] {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
	}
}

// refQuadrant is the generator's original quadrant pick, one branch per
// draw.
func refQuadrant(r float64) uint32 {
	const a, b, c = 0.57, 0.19, 0.19
	switch {
	case r < a:
		return 0
	case r < a+b:
		return 1
	case r < a+b+c:
		return 2
	default:
		return 3
	}
}

// TestQuadrantMatchesReference: the branch-free pick agrees with the
// branching one on every threshold, the draws one ulp either side of it,
// and random draws. A draw lands exactly on a threshold with probability
// 2^-53, so only this test tells >= from >.
func TestQuadrantMatchesReference(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	rs := []float64{0, math.Nextafter(1, 0)}
	for _, th := range []float64{a, a + b, a + b + c} {
		rs = append(rs, math.Nextafter(th, 0), th, math.Nextafter(th, 1))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		rs = append(rs, rng.Float64())
	}
	for _, r := range rs {
		if got, want := quadrant(r), refQuadrant(r); got != want {
			t.Errorf("quadrant(%v) = %d, want %d", r, got, want)
		}
	}
}

// BenchmarkKronecker times the KR generator at 2^16 vertices (QuickScale).
func BenchmarkKronecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Kronecker("kr", 16, 16, 42)
	}
}
