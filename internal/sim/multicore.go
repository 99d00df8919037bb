package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The multicore experiment implements the extension §VI-E hints at: "SVR
// across multiple cores simultaneously would give significant benefit"
// because a single SVR core does not saturate memory bandwidth. K SVR
// cores with private cache hierarchies share one DRAM channel; cores are
// stepped in simulated-time order so their requests contend realistically
// on the channel's bandwidth ledger.

func init() {
	registerExperiment(Experiment{
		ID:    "multicore",
		Title: "Extension (§VI-E): multiple SVR cores sharing one DRAM channel",
		Run:   runMulticore,
	})
}

// mcCore is one core's simulation context: any Machine stepped in quanta.
type mcCore struct {
	m    Machine
	done bool
}

// runCluster simulates k cores, each running its own workload instance,
// until every core has executed measure instructions. It returns the
// per-core IPCs. Machines come from the same constructor as the
// single-core experiments (NewMachineShared is NewMachine on a given
// channel); only the DRAM channel is shared.
func runCluster(specs []workloads.Spec, k int, p Params, useSVR bool) []float64 {
	cfg := SVRConfig(16)
	if !useSVR {
		cfg.Core = InO
	}
	channel := dram.New(cfg.Hier.DRAM)
	cores := make([]*mcCore, k)
	for i := 0; i < k; i++ {
		spec := specs[i%len(specs)]
		inst := cloneInstance(spec.Build(p.Scale))
		m, err := NewMachineShared(cfg, inst, channel)
		if err != nil {
			panic(err)
		}
		cores[i] = &mcCore{m: m}
	}

	// Warmup each core independently.
	for _, mc := range cores {
		mc.m.Step(p.Warmup)
		mc.m.ResetStats()
	}

	// Measured phase: always step the core that is furthest behind in
	// simulated time, in small quanta, so channel contention interleaves
	// realistically.
	const quantum = 256
	for {
		var next *mcCore
		for _, mc := range cores {
			if mc.done || mc.m.Instrs() >= p.Measure {
				mc.done = true
				continue
			}
			if next == nil || mc.m.Now() < next.m.Now() {
				next = mc
			}
		}
		if next == nil {
			break
		}
		if !next.m.Step(quantum) {
			next.done = true
		}
	}

	ipcs := make([]float64, k)
	for i, mc := range cores {
		ipcs[i] = mc.m.Collect().IPC
	}
	return ipcs
}

func runMulticore(p ExpParams) *Report {
	r := newReport("multicore", "SVR cores sharing one DRAM channel")
	specs := sweepWorkloads(p)

	// Per-workload solo runs (uncontended channel) form the baseline for
	// each cluster's exact workload mix.
	soloSVR := make([]float64, len(specs))
	for i := range specs {
		soloSVR[i] = runCluster(specs[i:i+1], 1, p.Params, true)[0]
	}
	soloBase := runCluster(specs[:1], 1, p.Params, false)[0]
	r.Values["solo.ipc"] = soloSVR[0]

	t := stats.NewTable("cores", "aggregate IPC", "per-core IPC (hmean)",
		"per-core vs solo", "aggregate vs 1x in-order")
	for _, k := range []int{1, 2, 4, 8} {
		ipcs := runCluster(specs, k, p.Params, true)
		agg := 0.0
		for _, v := range ipcs {
			agg += v
		}
		per := stats.HarmonicMean(ipcs)
		mix := make([]float64, k)
		for i := 0; i < k; i++ {
			mix[i] = soloSVR[i%len(specs)]
		}
		rel := per / stats.HarmonicMean(mix)
		t.AddRowF(fmt.Sprintf("%d", k), agg, per, rel, agg/soloBase)
		r.Values[fmt.Sprintf("agg.%d", k)] = agg
		r.Values[fmt.Sprintf("percore.%d", k)] = rel
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"a single SVR core leaves most of the 50 GiB/s channel idle (§VI-E);",
		"aggregate IPC should scale until the shared channel saturates")
	return r
}
