package workloads

import (
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/graphs"
	"repro/internal/isa"
	"repro/internal/mem"
)

// gapKernels are the five GAP benchmark kernels of §V.
var gapKernels = []string{"BC", "BFS", "CC", "PR", "SSSP"}

var gapDescs = map[string]string{
	"BC":   "betweenness centrality (Brandes forward/backward passes)",
	"BFS":  "top-down breadth-first search",
	"CC":   "connected components (min-label propagation)",
	"PR":   "PageRank pull iteration (Listing 1)",
	"SSSP": "worklist shortest paths (SPFA)",
}

func init() {
	for _, k := range gapKernels {
		for _, in := range graphs.Inputs {
			k, in := k, in
			register(Spec{
				Name:  fmt.Sprintf("%s_%s", k, in),
				Group: "gap",
				Desc:  gapDescs[k] + " on the " + string(in) + " input",
				Build: func(sc Scale) *Instance { return buildGAP(k, in, sc) },
			})
		}
	}
}

func buildGAP(kernel string, in graphs.Input, sc Scale) *Instance {
	gi := cachedGraph(in, sc.GraphNodes, sc.Seed).clone()
	switch kernel {
	case "PR":
		return buildPR(gi, fmt.Sprintf("PR_%s", in))
	case "BFS":
		return buildBFS(gi, fmt.Sprintf("BFS_%s", in))
	case "CC":
		return buildCC(gi, fmt.Sprintf("CC_%s", in))
	case "SSSP":
		return buildSSSP(gi, fmt.Sprintf("SSSP_%s", in), sc.Seed)
	case "BC":
		return buildBC(gi, fmt.Sprintf("BC_%s", in))
	}
	panic("unknown GAP kernel " + kernel)
}

// graphImage is a CSR graph laid out in simulator memory: its offsets
// and neighbors arrays are the first two arrays of m.
type graphImage struct {
	m          *mem.Memory
	off, neigh mem.Array // uint32
}

// cachedGraph returns input in at n vertices and seed laid out in
// memory, the graph class of the process-wide artifact store: produced
// at most once however many callers ask at a time, with different
// graphs producing in parallel, charged its pages and evicted under the
// store's budget. Its memory holds the CSR alone and is never written
// after loadGraph: images take a clone.
func cachedGraph(in graphs.Input, n int, seed int64) graphImage {
	v, _ := artifact.Shared().GetOrProduce(graphKey(in, n, seed), func() (any, int64) {
		gi := loadGraph(graphs.Build(in, n, seed))
		return gi, int64(gi.m.Pages()) * mem.PageSize
	})
	return v.(graphImage)
}

// graphKey addresses a graph in the store: generators are pure functions
// of (input, n, seed).
func graphKey(in graphs.Input, n int, seed int64) artifact.Key {
	return artifact.Key{Class: artifact.Graph, ID: fmt.Sprintf("%s|n%d|s%d", in, n, seed)}
}

func loadGraph(g *graphs.CSR) graphImage {
	m := mem.New()
	off := m.NewArray(uint64(g.NumNodes+1), 4)
	neigh := m.NewArray(uint64(len(g.Neighbors)), 4)
	off.SetEach(func(i uint64) uint64 { return uint64(g.Offsets[i]) })
	neigh.SetEach(func(i uint64) uint64 { return uint64(g.Neighbors[i]) })
	return graphImage{m: m, off: off, neigh: neigh}
}

// clone returns a copy-on-write clone of the graph for one kernel's
// image, which allocates its own arrays after the CSR. The CSR's pages
// stay shared with the stored graph and every other image of the input
// until someone writes them; no kernel does.
func (gi graphImage) clone() graphImage {
	m := gi.m.Clone()
	return graphImage{m: m, off: gi.off.On(m), neigh: gi.neigh.On(m)}
}

// nodes returns the vertex count.
func (gi graphImage) nodes() int { return int(gi.off.N) - 1 }

// degree returns the out-degree of u, read from gi's own memory.
func (gi graphImage) degree(u int) int {
	return int(gi.off.Get(uint64(u+1)) - gi.off.Get(uint64(u)))
}

// csr reads the graph back out of m, a copy of the image. Each Check
// rebuilds its reference from it rather than keep the generator's CSR,
// which lives only while its graph is produced.
func (gi graphImage) csr(m *mem.Memory) *graphs.CSR {
	off, neigh := gi.off.On(m), gi.neigh.On(m)
	g := &graphs.CSR{NumNodes: int(off.N) - 1,
		Offsets: make([]uint32, off.N), Neighbors: make([]uint32, neigh.N)}
	for i := range g.Offsets {
		g.Offsets[i] = uint32(off.Get(uint64(i)))
	}
	for i := range g.Neighbors {
		g.Neighbors[i] = uint32(neigh.Get(uint64(i)))
	}
	return g
}

// emitEdgeLoop generates the canonical CSR traversal skeleton:
//
//	for u in 0..n { k = off[u]; end = off[u+1]; for ; k < end; k++ {
//	    v = neigh[k]; body(v) } ; perVertex(u) }
//
// body receives registers (rU, rV, rK); the offsets walk is sequential
// (covered by the stride prefetcher), neigh[k] is the striding load SVR
// piggybacks on, and loads indexed by rV inside body are the indirect
// chain.
func emitEdgeLoop(b *isa.Builder, gi graphImage, n int,
	setup func(rU isa.Reg),
	body func(rU, rV, rK isa.Reg),
	perVertex func(rU isa.Reg)) {

	rOff := b.AllocReg()
	rNeigh := b.AllocReg()
	rU := b.AllocReg()
	rN := b.AllocReg()
	rK := b.AllocReg()
	rEnd := b.AllocReg()
	rV := b.AllocReg()
	rT := b.AllocReg()

	b.LoadImm(rOff, int64(gi.off.Base))
	b.LoadImm(rNeigh, int64(gi.neigh.Base))
	b.LoadImm(rU, 0)
	b.LoadImm(rN, int64(n))
	b.Label("vloop")
	if setup != nil {
		setup(rU)
	}
	b.ShlI(rT, rU, 2)
	b.Add(rT, rT, rOff)
	b.Load(rK, rT, 0, 4)   // off[u]
	b.Load(rEnd, rT, 4, 4) // off[u+1]
	// Rotated (do-while) loop, as compilers emit at -O2: the back edge
	// is a conditional taken branch fed by the bound compare, which is
	// what trains SVR's loop-bound detector.
	b.Cmp(rK, rEnd)
	b.BGE("edone")
	b.Label("eloop")
	b.ShlI(rT, rK, 2)
	b.Add(rT, rT, rNeigh)
	b.Load(rV, rT, 0, 4) // striding neighbor load
	body(rU, rV, rK)
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("eloop")
	b.Label("edone")
	if perVertex != nil {
		perVertex(rU)
	}
	b.AddI(rU, rU, 1)
	b.Cmp(rU, rN)
	b.BLT("vloop")
}

// ---- PageRank (pull; Listing 1) -------------------------------------

func buildPR(gi graphImage, name string) *Instance {
	n := gi.nodes()
	contrib := gi.m.NewArray(uint64(n), 8)
	out := gi.m.NewArray(uint64(n), 8)
	for u := 0; u < n; u++ {
		contrib.SetF(uint64(u), 1.0/float64(gi.degree(u)+1))
	}

	b := isa.NewBuilder(name)
	rContrib := b.AllocReg()
	rOut := b.AllocReg()
	rSum := b.AllocReg()
	rC := b.AllocReg()
	rA := b.AllocReg()
	b.LoadImm(rContrib, int64(contrib.Base))
	b.LoadImm(rOut, int64(out.Base))
	emitEdgeLoop(b, gi, n,
		func(rU isa.Reg) { b.LoadImm(rSum, isa.F2B(0)) },
		func(rU, rV, rK isa.Reg) {
			b.ShlI(rA, rV, 3)
			b.Add(rA, rA, rContrib)
			b.Load(rC, rA, 0, 8) // indirect: contrib[v]
			b.FAdd(rSum, rSum, rC)
		},
		func(rU isa.Reg) {
			b.ShlI(rA, rU, 3)
			b.Add(rA, rA, rOut)
			b.Store(rSum, rA, 0, 8)
		})
	b.Halt()

	check := func(m *mem.Memory) error {
		g, contrib, out := gi.csr(m), contrib.On(m), out.On(m)
		for u := 0; u < n; u++ {
			want := 0.0
			for _, v := range g.Neigh(u) {
				want += contrib.GetF(uint64(v))
			}
			if got := out.GetF(uint64(u)); got != want && math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("PR: out[%d] = %v, want %v", u, got, want)
			}
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: gi.m, Check: check}
}

// ---- BFS (top-down, queue-based) ------------------------------------

func buildBFS(gi graphImage, name string) *Instance {
	n := gi.nodes()
	parent := gi.m.NewArray(uint64(n), 8) // int64 parents, -1 = unvisited
	qa := gi.m.NewArray(uint64(n), 4)
	qb := gi.m.NewArray(uint64(n), 4)
	for u := 0; u < n; u++ {
		parent.SetI(uint64(u), -1)
	}
	src := pickSource(gi)
	parent.SetI(uint64(src), int64(src))
	qa.Set(0, uint64(src))

	b := isa.NewBuilder(name)
	rOff := b.AllocReg()
	rNeigh := b.AllocReg()
	rParent := b.AllocReg()
	rCur := b.AllocReg()
	rNext := b.AllocReg()
	rCurCnt := b.AllocReg()
	rNextCnt := b.AllocReg()
	rIdx := b.AllocReg()
	rU := b.AllocReg()
	rK := b.AllocReg()
	rEnd := b.AllocReg()
	rV := b.AllocReg()
	rP := b.AllocReg()
	rA := b.AllocReg()
	rTmp := b.AllocReg()

	b.LoadImm(rOff, int64(gi.off.Base))
	b.LoadImm(rNeigh, int64(gi.neigh.Base))
	b.LoadImm(rParent, int64(parent.Base))
	b.LoadImm(rCur, int64(qa.Base))
	b.LoadImm(rNext, int64(qb.Base))
	b.LoadImm(rCurCnt, 1)

	b.Label("level")
	b.CmpI(rCurCnt, 0)
	b.BLE("done")
	b.LoadImm(rIdx, 0)
	b.LoadImm(rNextCnt, 0)
	b.Label("qloop")
	b.ShlI(rA, rIdx, 2)
	b.Add(rA, rA, rCur)
	b.Load(rU, rA, 0, 4) // striding: u = cur[idx]
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rOff)
	b.Load(rK, rA, 0, 4)   // indirect: off[u]
	b.Load(rEnd, rA, 4, 4) // indirect: off[u+1]
	b.Cmp(rK, rEnd)
	b.BGE("qnext")
	b.Label("eloop")
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rNeigh)
	b.Load(rV, rA, 0, 4) // striding: v = neigh[k]
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rParent)
	b.Load(rP, rA, 0, 8) // indirect: parent[v]
	b.CmpI(rP, 0)
	b.BGE("visited")
	b.Store(rU, rA, 0, 8) // parent[v] = u
	b.ShlI(rTmp, rNextCnt, 2)
	b.Add(rTmp, rTmp, rNext)
	b.Store(rV, rTmp, 0, 4) // next[nextCnt] = v
	b.AddI(rNextCnt, rNextCnt, 1)
	b.Label("visited")
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("eloop")
	b.Label("qnext")
	b.AddI(rIdx, rIdx, 1)
	b.Cmp(rIdx, rCurCnt)
	b.BLT("qloop")
	b.Mov(rTmp, rCur)
	b.Mov(rCur, rNext)
	b.Mov(rNext, rTmp)
	b.Mov(rCurCnt, rNextCnt)
	b.Jmp("level")
	b.Label("done")
	b.Halt()

	check := func(m *mem.Memory) error {
		want, parent := refBFS(gi.csr(m), src), parent.On(m)
		for u := 0; u < n; u++ {
			if got := parent.GetI(uint64(u)); got != want[u] {
				return fmt.Errorf("BFS: parent[%d] = %d, want %d", u, got, want[u])
			}
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: gi.m, Check: check}
}

// refBFS mirrors the kernel's traversal order exactly.
func refBFS(g *graphs.CSR, src int) []int64 {
	parent := make([]int64, g.NumNodes)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int64(src)
	cur := []uint32{uint32(src)}
	for len(cur) > 0 {
		var next []uint32
		for _, u := range cur {
			for _, v := range g.Neigh(int(u)) {
				if parent[v] < 0 {
					parent[v] = int64(u)
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return parent
}

// pickSource returns the first vertex with nonzero degree.
func pickSource(gi graphImage) int {
	for u := 0; u < gi.nodes(); u++ {
		if gi.degree(u) > 0 {
			return u
		}
	}
	return 0
}

// ---- Connected Components (label propagation) -----------------------

func buildCC(gi graphImage, name string) *Instance {
	n := gi.nodes()
	comp := gi.m.NewArray(uint64(n), 4)
	for u := 0; u < n; u++ {
		comp.Set(uint64(u), uint64(u))
	}

	b := isa.NewBuilder(name)
	rComp := b.AllocReg()
	rChanged := b.AllocReg()
	rC := b.AllocReg()
	rCV := b.AllocReg()
	rA := b.AllocReg()
	rOld := b.AllocReg()
	b.LoadImm(rComp, int64(comp.Base))
	b.Label("sweep")
	b.LoadImm(rChanged, 0)
	emitEdgeLoop(b, gi, n,
		func(rU isa.Reg) {
			b.ShlI(rA, rU, 2)
			b.Add(rA, rA, rComp)
			b.Load(rC, rA, 0, 4) // comp[u] (sequential)
			b.Mov(rOld, rC)
		},
		func(rU, rV, rK isa.Reg) {
			b.ShlI(rA, rV, 2)
			b.Add(rA, rA, rComp)
			b.Load(rCV, rA, 0, 4) // indirect: comp[v]
			b.Min(rC, rC, rCV)
		},
		func(rU isa.Reg) {
			b.Cmp(rC, rOld)
			b.BGE("nostore")
			b.ShlI(rA, rU, 2)
			b.Add(rA, rA, rComp)
			b.Store(rC, rA, 0, 4)
			b.LoadImm(rChanged, 1)
			b.Label("nostore")
		})
	b.CmpI(rChanged, 0)
	b.BNE("sweep")
	b.Halt()

	check := func(m *mem.Memory) error {
		want, comp := refCC(gi.csr(m)), comp.On(m)
		for u := 0; u < n; u++ {
			if got := uint32(comp.Get(uint64(u))); got != want[u] {
				return fmt.Errorf("CC: comp[%d] = %d, want %d", u, got, want[u])
			}
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: gi.m, Check: check}
}

// refCC runs the same min-label propagation to convergence.
func refCC(g *graphs.CSR) []uint32 {
	comp := make([]uint32, g.NumNodes)
	for i := range comp {
		comp[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.NumNodes; u++ {
			c := comp[u]
			for _, v := range g.Neigh(u) {
				if comp[v] < c {
					c = comp[v]
				}
			}
			if c < comp[u] {
				comp[u] = c
				changed = true
			}
		}
	}
	return comp
}

// ---- SSSP (Bellman-Ford sweeps) --------------------------------------

const infDist = int64(1) << 40

// buildSSSP builds a worklist-driven shortest-path kernel (SPFA — the
// scalar skeleton of GAP's delta-stepping): vertices pop off a ring
// buffer, their edges relax neighbor distances, and improved neighbors
// not already queued are pushed. The critical misses (dist[u], neigh[k],
// dist[v], inq[v]) sit two to three indirection levels deep, which is why
// IMP cannot capture SSSP (§VI-A) while SVR's transitive taint chain can.
func buildSSSP(gi graphImage, name string, seed int64) *Instance {
	n := gi.nodes()
	m := int(gi.neigh.N)
	w := gi.m.NewArray(uint64(m), 4)
	dist := gi.m.NewArray(uint64(n), 8)
	inq := gi.m.NewArray(uint64(n), 4)
	ringCap := uint64(1)
	for ringCap < uint64(n)+1 {
		ringCap <<= 1
	}
	queue := gi.m.NewArray(ringCap, 4)

	x := uint64(seed)*2654435761 + 12345
	for k := 0; k < m; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		w.Set(uint64(k), 1+(x>>33)%16)
	}
	for u := 0; u < n; u++ {
		dist.SetI(uint64(u), infDist)
	}
	src := pickSource(gi)
	dist.SetI(uint64(src), 0)
	inq.Set(uint64(src), 1)
	queue.Set(0, uint64(src))

	b := isa.NewBuilder(name)
	rOff := b.AllocReg()
	rNeigh := b.AllocReg()
	rW := b.AllocReg()
	rDist := b.AllocReg()
	rInq := b.AllocReg()
	rQ := b.AllocReg()
	rHead := b.AllocReg()
	rTail := b.AllocReg()
	rMask := b.AllocReg()
	rU := b.AllocReg()
	rDU := b.AllocReg()
	rK := b.AllocReg()
	rEnd := b.AllocReg()
	rV := b.AllocReg()
	rWV := b.AllocReg()
	rND := b.AllocReg()
	rDV := b.AllocReg()
	rA := b.AllocReg()
	rF := b.AllocReg()

	b.LoadImm(rOff, int64(gi.off.Base))
	b.LoadImm(rNeigh, int64(gi.neigh.Base))
	b.LoadImm(rW, int64(w.Base))
	b.LoadImm(rDist, int64(dist.Base))
	b.LoadImm(rInq, int64(inq.Base))
	b.LoadImm(rQ, int64(queue.Base))
	b.LoadImm(rHead, 0)
	b.LoadImm(rTail, 1)
	b.LoadImm(rMask, int64(ringCap-1))

	b.Label("pop")
	b.Cmp(rHead, rTail)
	b.BGE("done")
	b.And(rA, rHead, rMask)
	b.ShlI(rA, rA, 2)
	b.Add(rA, rA, rQ)
	b.Load(rU, rA, 0, 4) // striding: u = queue[head & mask]
	b.AddI(rHead, rHead, 1)
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rInq)
	b.Store(isa.R0, rA, 0, 4) // inq[u] = 0
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rDist)
	b.Load(rDU, rA, 0, 8) // indirect: dist[u]
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rOff)
	b.Load(rK, rA, 0, 4)   // indirect: off[u]
	b.Load(rEnd, rA, 4, 4) // indirect: off[u+1]
	b.Cmp(rK, rEnd)
	b.BGE("pop")
	b.Label("edge")
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rNeigh)
	b.Load(rV, rA, 0, 4) // striding: v = neigh[k]
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rW)
	b.Load(rWV, rA, 0, 4) // striding: w[k]
	b.Add(rND, rDU, rWV)
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rDist)
	b.Load(rDV, rA, 0, 8) // indirect: dist[v]
	b.Cmp(rND, rDV)
	b.BGE("norelax")
	b.Store(rND, rA, 0, 8) // dist[v] = nd
	b.ShlI(rA, rV, 2)
	b.Add(rA, rA, rInq)
	b.Load(rF, rA, 0, 4) // indirect: inq[v]
	b.CmpI(rF, 0)
	b.BNE("norelax")
	b.LoadImm(rF, 1)
	b.Store(rF, rA, 0, 4) // inq[v] = 1
	b.And(rA, rTail, rMask)
	b.ShlI(rA, rA, 2)
	b.Add(rA, rA, rQ)
	b.Store(rV, rA, 0, 4) // queue[tail & mask] = v
	b.AddI(rTail, rTail, 1)
	b.Label("norelax")
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("edge")
	b.Jmp("pop")
	b.Label("done")
	b.Halt()

	check := func(memImg *mem.Memory) error {
		want, dist := refSSSP(gi.csr(memImg), src, w.On(memImg)), dist.On(memImg)
		for u := 0; u < n; u++ {
			if got := dist.GetI(uint64(u)); got != want[u] {
				return fmt.Errorf("SSSP: dist[%d] = %d, want %d", u, got, want[u])
			}
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: gi.m, Check: check}
}

// refSSSP runs Bellman-Ford to convergence; SPFA computes the same fixed
// point (exact shortest distances), so the final dist arrays agree.
func refSSSP(g *graphs.CSR, src int, w mem.Array) []int64 {
	dist := make([]int64, g.NumNodes)
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.NumNodes; u++ {
			du := dist[u]
			if du >= infDist {
				continue
			}
			off := g.Offsets[u]
			for i, v := range g.Neigh(u) {
				nd := du + int64(w.Get(uint64(off)+uint64(i)))
				if nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
	}
	return dist
}

// ---- Betweenness Centrality (Brandes, single source) -----------------

func buildBC(gi graphImage, name string) *Instance {
	n := gi.nodes()
	level := gi.m.NewArray(uint64(n), 8) // int64 level, -1
	sigma := gi.m.NewArray(uint64(n), 8) // float64 path counts
	delta := gi.m.NewArray(uint64(n), 8) // float64 dependencies
	visit := gi.m.NewArray(uint64(n), 4) // visit order
	for u := 0; u < n; u++ {
		level.SetI(uint64(u), -1)
	}
	src := pickSource(gi)
	level.SetI(uint64(src), 0)
	sigma.SetF(uint64(src), 1)
	visit.Set(0, uint64(src))

	b := isa.NewBuilder(name)
	rOff := b.AllocReg()
	rNeigh := b.AllocReg()
	rLevel := b.AllocReg()
	rSigma := b.AllocReg()
	rDelta := b.AllocReg()
	rVisit := b.AllocReg()
	rHead := b.AllocReg() // next unprocessed index in visit order
	rTail := b.AllocReg() // number of discovered vertices
	rU := b.AllocReg()
	rK := b.AllocReg()
	rEnd := b.AllocReg()
	rV := b.AllocReg()
	rA := b.AllocReg()
	rT := b.AllocReg()
	rLU := b.AllocReg()
	rLV := b.AllocReg()
	rSU := b.AllocReg()
	rSV := b.AllocReg()
	rDU := b.AllocReg()
	rDV := b.AllocReg()
	rOne := b.AllocReg()

	b.LoadImm(rOff, int64(gi.off.Base))
	b.LoadImm(rNeigh, int64(gi.neigh.Base))
	b.LoadImm(rLevel, int64(level.Base))
	b.LoadImm(rSigma, int64(sigma.Base))
	b.LoadImm(rDelta, int64(delta.Base))
	b.LoadImm(rVisit, int64(visit.Base))
	b.LoadImm(rHead, 0)
	b.LoadImm(rTail, 1)
	b.LoadImmF(rOne, 1)

	// Forward phase: BFS in visit order, accumulating sigma.
	b.Label("fwd")
	b.Cmp(rHead, rTail)
	b.BGE("back_init")
	b.ShlI(rA, rHead, 2)
	b.Add(rA, rA, rVisit)
	b.Load(rU, rA, 0, 4) // striding: u = visit[head]
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rLevel)
	b.Load(rLU, rA, 0, 8) // level[u]
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rSigma)
	b.Load(rSU, rA, 0, 8) // sigma[u]
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rOff)
	b.Load(rK, rA, 0, 4)
	b.Load(rEnd, rA, 4, 4)
	b.Cmp(rK, rEnd)
	b.BGE("fnext")
	b.Label("feloop")
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rNeigh)
	b.Load(rV, rA, 0, 4) // striding: v
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rLevel)
	b.Load(rLV, rA, 0, 8) // indirect: level[v]
	b.CmpI(rLV, 0)
	b.BGE("notnew")
	// Newly discovered: level[v] = level[u]+1; append to visit order.
	b.AddI(rLV, rLU, 1)
	b.Store(rLV, rA, 0, 8)
	b.ShlI(rT, rTail, 2)
	b.Add(rT, rT, rVisit)
	b.Store(rV, rT, 0, 4)
	b.AddI(rTail, rTail, 1)
	b.Label("notnew")
	// On-tree edge: sigma[v] += sigma[u] when level[v] == level[u]+1.
	b.AddI(rT, rLU, 1)
	b.Cmp(rLV, rT)
	b.BNE("fskip")
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rSigma)
	b.Load(rSV, rA, 0, 8) // indirect: sigma[v]
	b.FAdd(rSV, rSV, rSU)
	b.Store(rSV, rA, 0, 8)
	b.Label("fskip")
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("feloop")
	b.Label("fnext")
	b.AddI(rHead, rHead, 1)
	b.Jmp("fwd")

	// Backward phase: reverse visit order, accumulate dependencies.
	b.Label("back_init")
	b.Mov(rHead, rTail)
	b.Label("back")
	b.AddI(rHead, rHead, -1)
	b.CmpI(rHead, 0)
	b.BLT("done")
	b.ShlI(rA, rHead, 2)
	b.Add(rA, rA, rVisit)
	b.Load(rU, rA, 0, 4) // striding (reverse): u
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rLevel)
	b.Load(rLU, rA, 0, 8)
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rSigma)
	b.Load(rSU, rA, 0, 8)
	b.LoadImm(rDU, isa.F2B(0))
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rOff)
	b.Load(rK, rA, 0, 4)
	b.Load(rEnd, rA, 4, 4)
	b.Cmp(rK, rEnd)
	b.BGE("bnext")
	b.Label("beloop")
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rNeigh)
	b.Load(rV, rA, 0, 4)
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rLevel)
	b.Load(rLV, rA, 0, 8) // indirect: level[v]
	b.AddI(rT, rLU, 1)
	b.Cmp(rLV, rT)
	b.BNE("bskip")
	// delta[u] += sigma[u]/sigma[v] * (1 + delta[v])
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rSigma)
	b.Load(rSV, rA, 0, 8)
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rDelta)
	b.Load(rDV, rA, 0, 8)
	b.FAdd(rDV, rDV, rOne)
	b.FDiv(rT, rSU, rSV)
	b.FMul(rT, rT, rDV)
	b.FAdd(rDU, rDU, rT)
	b.Label("bskip")
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("beloop")
	b.Label("bnext")
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rDelta)
	b.Store(rDU, rA, 0, 8)
	b.Jmp("back")
	b.Label("done")
	b.Halt()

	check := func(memImg *mem.Memory) error {
		wantLevel, wantSigma, wantDelta := refBC(gi.csr(memImg), src)
		level, sigma, delta := level.On(memImg), sigma.On(memImg), delta.On(memImg)
		for u := 0; u < n; u++ {
			if got := level.GetI(uint64(u)); got != wantLevel[u] {
				return fmt.Errorf("BC: level[%d] = %d, want %d", u, got, wantLevel[u])
			}
			if got := sigma.GetF(uint64(u)); got != wantSigma[u] {
				return fmt.Errorf("BC: sigma[%d] = %v, want %v", u, got, wantSigma[u])
			}
			if got := delta.GetF(uint64(u)); math.Abs(got-wantDelta[u]) > 1e-9 {
				return fmt.Errorf("BC: delta[%d] = %v, want %v", u, got, wantDelta[u])
			}
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: gi.m, Check: check}
}

// refBC mirrors the kernel's exact forward/backward order.
func refBC(g *graphs.CSR, src int) ([]int64, []float64, []float64) {
	n := g.NumNodes
	level := make([]int64, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	sigma[src] = 1
	visit := []uint32{uint32(src)}
	for head := 0; head < len(visit); head++ {
		u := int(visit[head])
		for _, v := range g.Neigh(u) {
			if level[v] < 0 {
				level[v] = level[u] + 1
				visit = append(visit, v)
			}
			if level[v] == level[u]+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	for head := len(visit) - 1; head >= 0; head-- {
		u := int(visit[head])
		du := 0.0
		for _, v := range g.Neigh(u) {
			if level[v] == level[u]+1 {
				du += sigma[u] / sigma[v] * (1 + delta[v])
			}
		}
		delta[u] = du
	}
	return level, sigma, delta
}
