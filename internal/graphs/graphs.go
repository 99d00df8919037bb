// Package graphs builds the graph inputs of the evaluation (§V) in CSR
// form: synthetic Kronecker (KR) and uniform-random (UR) graphs as in the
// paper, plus scaled-down synthetic stand-ins for the real-world inputs
// (LiveJournal, Twitter, Orkut) with matched degree-distribution shape —
// power-law graphs with per-input skew and density (see DESIGN.md,
// substitution 3).
package graphs

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/artifact"
)

// CSR is a graph in compressed sparse row format (Fig 2): Offsets[u] is
// the index of u's first neighbor in Neighbors.
type CSR struct {
	Name      string
	NumNodes  int
	Offsets   []uint32 // len NumNodes+1
	Neighbors []uint32
}

// Bytes is what the CSR's two arrays hold, the graph's charge in the
// artifact store.
func (g *CSR) Bytes() int64 { return 4 * int64(len(g.Offsets)+len(g.Neighbors)) }

// NumEdges returns the (directed) edge count.
func (g *CSR) NumEdges() int { return len(g.Neighbors) }

// Degree returns the out-degree of u.
func (g *CSR) Degree(u int) int { return int(g.Offsets[u+1] - g.Offsets[u]) }

// Neigh returns the neighbor slice of u.
func (g *CSR) Neigh(u int) []uint32 { return g.Neighbors[g.Offsets[u]:g.Offsets[u+1]] }

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for u := 0; u < g.NumNodes; u++ {
		if d := g.Degree(u); d > m {
			m = d
		}
	}
	return m
}

// fromEdges builds a CSR from an edge list, sorting each vertex's
// neighbors. Duplicate edges and self-loops are kept; GAP kernels
// tolerate both.
func fromEdges(name string, n int, src, dst []uint32) *CSR {
	deg := make([]uint32, n+1)
	for _, s := range src {
		deg[s+1]++
	}
	off := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	neigh := make([]uint32, len(src))
	cursor := make([]uint32, n)
	copy(cursor, off[:n])
	for i, s := range src {
		neigh[cursor[s]] = dst[i]
		cursor[s]++
	}
	// Sort each adjacency list for locality realism (GAP does the same).
	for u := 0; u < n; u++ {
		slices.Sort(neigh[off[u]:off[u+1]])
	}
	return &CSR{Name: name, NumNodes: n, Offsets: off, Neighbors: neigh}
}

// Uniform generates a uniform-random (Erdős–Rényi-style) graph with n
// vertices and about n*degree directed edges — the paper's UR input.
func Uniform(name string, n, degree int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := n * degree
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(rng.Intn(n))
		dst[i] = uint32(rng.Intn(n))
	}
	return fromEdges(name, n, src, dst)
}

// Kronecker generates an R-MAT/Kronecker graph with 2^scale vertices and
// about edgeFactor*2^scale edges using the Graph500 parameters
// (A=0.57, B=0.19, C=0.19) — the paper's KR input. Degree distribution is
// heavily skewed, as in real social networks.
func Kronecker(name string, scale, edgeFactor int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			q := quadrant(rng.Float64())
			u |= (q >> 1) << bit
			v |= (q & 1) << bit
		}
		src[i] = u
		dst[i] = v
	}
	return fromEdges(name, n, src, dst)
}

// quadrant picks the R-MAT quadrant of one uniform draw r without a
// branch: it counts the thresholds r has reached, so 0 is top-left (no
// bit set), 1 sets the destination's bit, 2 the source's and 3 both.
func quadrant(r float64) uint32 {
	const a, b, c = 0.57, 0.19, 0.19
	return b2i(r >= a) + b2i(r >= a+b) + b2i(r >= a+b+c)
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc.
func b2i(t bool) uint32 {
	if t {
		return 1
	}
	return 0
}

// PowerLaw generates a graph whose out-degrees follow a discrete
// power-law with the given exponent (smaller exponent = heavier tail),
// used as the synthetic stand-in for the paper's real-world inputs:
// LiveJournal-like (alpha~2.4), Twitter-like (alpha~2.0, heavier hubs),
// Orkut-like (alpha~2.7, denser average degree).
func PowerLaw(name string, n, avgDegree int, alpha float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	// Sample degrees from a Zipf-like distribution, then rescale to hit
	// the requested average.
	zipf := rand.NewZipf(rng, alpha, 1, uint64(n/4))
	deg := make([]int, n)
	total := 0
	for i := range deg {
		deg[i] = 1 + int(zipf.Uint64())
		total += deg[i]
	}
	want := n * avgDegree
	scale := float64(want) / float64(total)
	total = 0
	for i := range deg {
		d := int(float64(deg[i])*scale + 0.5)
		if d < 1 {
			d = 1
		}
		deg[i] = d
		total += d
	}
	src := make([]uint32, 0, total)
	dst := make([]uint32, 0, total)
	for u := 0; u < n; u++ {
		for k := 0; k < deg[u]; k++ {
			src = append(src, uint32(u))
			dst = append(dst, uint32(rng.Intn(n)))
		}
	}
	return fromEdges(name, n, src, dst)
}

// Input identifies one of the five graph inputs of §V.
type Input string

// The paper's graph inputs.
const (
	KR  Input = "KR"  // Kronecker (synthetic)
	UR  Input = "UR"  // uniform random (synthetic)
	LJN Input = "LJN" // LiveJournal-like (synthetic stand-in)
	TW  Input = "TW"  // Twitter-like (synthetic stand-in)
	ORK Input = "ORK" // Orkut-like (synthetic stand-in)
)

// Inputs lists the five graph inputs in paper order.
var Inputs = []Input{KR, LJN, ORK, TW, UR}

// Build constructs the named input at the given scale (vertex count
// target; generators round to their natural sizes). Each input keeps its
// characteristic shape: KR and the real-world stand-ins are skewed, UR is
// flat, TW has the heaviest hubs, ORK the highest density. The five GAP
// kernels share each input, so a graph is an artifact of the
// process-wide store, keyed by (input, n, seed) and charged its CSR
// bytes: built once however many callers ask at a time, with different
// graphs building in parallel, and evicted under the store's budget.
// Callers must not mutate the result.
func Build(in Input, n int, seed int64) *CSR {
	v, _ := artifact.Shared().GetOrProduce(key(in, n, seed), func() (any, int64) {
		g := build(in, n, seed)
		return g, g.Bytes()
	})
	return v.(*CSR)
}

// key addresses a graph in the store: generators are pure functions of
// (input, n, seed).
func key(in Input, n int, seed int64) artifact.Key {
	return artifact.Key{Class: artifact.Graph, ID: fmt.Sprintf("%s|n%d|s%d", in, n, seed)}
}

func build(in Input, n int, seed int64) *CSR {
	switch in {
	case KR:
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return Kronecker(string(in), scale, 16, seed)
	case UR:
		return Uniform(string(in), n, 16, seed)
	case LJN:
		return PowerLaw(string(in), n, 14, 2.4, seed)
	case TW:
		return PowerLaw(string(in), n, 18, 2.0, seed)
	case ORK:
		return PowerLaw(string(in), n, 28, 2.7, seed)
	default:
		panic("graphs: unknown input " + string(in))
	}
}
