// Paperwalkthrough reproduces the paper's expository material directly:
// the 5-vertex CSR sample graph of Fig 2, the PageRank hot loop of
// Listing 1 written in the mini ISA, and a trace of SVR's piggyback
// runahead mode over it (Fig 4's timeline) — then scales the same loop up
// to show the machinery paying off.
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/graphs"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fig2Graph is the sample graph of Fig 2: offsets [0 2 4 7 9 12],
// neighbors [1 2 0 3 0 1 3 0 2 0 2 3].
func fig2Graph() *graphs.CSR {
	return &graphs.CSR{
		Name:      "fig2",
		NumNodes:  5,
		Offsets:   []uint32{0, 2, 4, 7, 9, 12},
		Neighbors: []uint32{1, 2, 0, 3, 0, 1, 3, 0, 2, 0, 2, 3},
	}
}

// buildListing1 lays the graph out in memory and emits the PageRank hot
// loop of Listing 1: for u { for v in in_neigh(u) { total += contrib[v] } }.
func buildListing1(g *graphs.CSR, contribVals []float64) (*isa.Program, *mem.Memory, mem.Array) {
	m := mem.New()
	off := m.NewArray(uint64(g.NumNodes+1), 4)
	neigh := m.NewArray(uint64(len(g.Neighbors)), 4)
	contrib := m.NewArray(uint64(g.NumNodes), 8)
	out := m.NewArray(uint64(g.NumNodes), 8)
	for i, o := range g.Offsets {
		off.Set(uint64(i), uint64(o))
	}
	for i, v := range g.Neighbors {
		neigh.Set(uint64(i), uint64(v))
	}
	for i, c := range contribVals {
		contrib.SetF(uint64(i), c)
	}

	b := isa.NewBuilder("listing1")
	rOff, rNeigh, rContrib, rOut := b.AllocReg(), b.AllocReg(), b.AllocReg(), b.AllocReg()
	rU, rN, rK, rEnd, rV, rC, rSum, rA := b.AllocReg(), b.AllocReg(), b.AllocReg(),
		b.AllocReg(), b.AllocReg(), b.AllocReg(), b.AllocReg(), b.AllocReg()
	b.LoadImm(rOff, int64(off.Base))
	b.LoadImm(rNeigh, int64(neigh.Base))
	b.LoadImm(rContrib, int64(contrib.Base))
	b.LoadImm(rOut, int64(out.Base))
	b.LoadImm(rU, 0)
	b.LoadImm(rN, int64(g.NumNodes))
	b.Label("vertex")
	b.LoadImm(rSum, isa.F2B(0))
	b.ShlI(rA, rU, 2)
	b.Add(rA, rA, rOff)
	b.Load(rK, rA, 0, 4)
	b.Load(rEnd, rA, 4, 4)
	b.Cmp(rK, rEnd)
	b.BGE("vdone")
	b.Label("edge")
	b.ShlI(rA, rK, 2)
	b.Add(rA, rA, rNeigh)
	b.Load(rV, rA, 0, 4) // striding neighbor load (SVR's trigger)
	b.ShlI(rA, rV, 3)
	b.Add(rA, rA, rContrib)
	b.Load(rC, rA, 0, 8) // indirect contrib[v] (the miss chain)
	b.FAdd(rSum, rSum, rC)
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("edge")
	b.Label("vdone")
	b.ShlI(rA, rU, 3)
	b.Add(rA, rA, rOut)
	b.Store(rSum, rA, 0, 8)
	b.AddI(rU, rU, 1)
	b.Cmp(rU, rN)
	b.BLT("vertex")
	b.Halt()
	return b.Build(), m, out
}

func main() {
	g := fig2Graph()
	contrib := []float64{2.939, 36.2, 801.0, 9.136, 12.25} // Fig 2's vertex data
	prog, m, out := buildListing1(g, contrib)

	fmt.Println("Listing 1 (PageRank hot loop) in the mini ISA:")
	fmt.Println(prog.Disasm())

	cpu := emu.New(prog, m)
	cpu.Run(1 << 16)
	fmt.Println("incoming totals over Fig 2's graph:")
	for u := 0; u < g.NumNodes; u++ {
		fmt.Printf("  vertex %d: %8.3f\n", u, out.GetF(uint64(u)))
	}

	// Fig 4's timeline: run the same loop at evaluation scale with SVR
	// attached and dump the engine's first few runahead events.
	fmt.Println("\nSVR over the same loop at evaluation scale (PR_KR):")
	res, err := sim.RunByName("PR_KR", sim.SVRConfig(16), sim.QuickParams())
	if err != nil {
		panic(err)
	}
	base, err := sim.RunByName("PR_KR", sim.MachineConfig(sim.InO), sim.QuickParams())
	if err != nil {
		panic(err)
	}
	fmt.Printf("  in-order CPI %.2f -> SVR16 CPI %.2f (%.2fx), %d PRM rounds, accuracy %.0f%%\n",
		base.CPI, res.CPI, base.CPI/res.CPI, res.SVRStats.Rounds,
		res.PFStats[cache.OriginSVR].Accuracy()*100)

	fmt.Println("\npiggyback-runahead timeline (Fig 4), one round:")
	traceOneRound()
}

// traceOneRound drives PR on a small Kronecker graph and prints the
// events of a single PRM round: head-load entry, the SVI copies of each
// chain instruction, and termination at the next head instance.
func traceOneRound() {
	g := graphs.Build(graphs.KR, 1<<12, 1)
	contrib := make([]float64, g.NumNodes)
	for i := range contrib {
		contrib[i] = float64(i) * 0.5
	}
	prog, image, _ := buildListing1(g, contrib)

	m, err := sim.NewMachine(sim.SVRConfig(16), &workloads.Instance{Name: prog.Name, Prog: prog, Mem: image})
	if err != nil {
		panic(err)
	}
	m.Step(3000) // warm the stride detector

	ring := trace.NewRing(64)
	m.SetTracer(engineEvents{ring})
	for ring.Total() < 12 && m.Step(100) {
	}
	for i, ev := range ring.Events() {
		if i >= 10 {
			break
		}
		fmt.Printf("  %s\n", ev)
	}
}

// engineEvents passes on the SVR engine's events only: the core's
// per-instruction issue and complete records would bury the round.
type engineEvents struct{ trace.Tracer }

func (e engineEvents) Emit(ev trace.Event) {
	if ev.Kind != trace.KindIssue && ev.Kind != trace.KindComplete {
		e.Tracer.Emit(ev)
	}
}
