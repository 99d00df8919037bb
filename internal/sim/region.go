package sim

import (
	"repro/internal/energy"
	"repro/internal/stats"
)

// Multi-region sampled simulation: N detailed warmup+measure windows
// stitched together by functional fast-forward, the standard sampling
// answer to paper-scale instruction budgets. The aggregate Result sums
// event counts across regions and recomputes the rate fields; the
// per-region spread travels in Result.Regions.

// RegionSummary reports the per-region spread of a multi-region run.
type RegionSummary struct {
	Requested   int    // regions Params asked for
	Simulated   int    // regions actually run (the program may end early)
	FastForward uint64 // instructions functionally skipped before each region
	IPC         []float64
	IPCMean     float64
	IPCCI95     float64 // 95 % CI half-width of the per-region IPC mean
	CPIMean     float64
	CPICI95     float64
}

// mergeRegions folds per-region Results into one aggregate.
func mergeRegions(per []Result, p Params) Result {
	agg := per[0]
	for _, r := range per[1:] {
		agg.Instrs += r.Instrs
		agg.Cycles += r.Cycles
		agg.Stack.Instrs += r.Stack.Instrs
		for i := range agg.Stack.Cycles {
			agg.Stack.Cycles[i] += r.Stack.Cycles[i]
		}
		for i := range agg.DRAMLoads {
			agg.DRAMLoads[i] += r.DRAMLoads[i]
		}
		agg.IFetchLoads += r.IFetchLoads
		agg.Writebacks += r.Writebacks
		for i := range agg.PFStats {
			agg.PFStats[i].Issued += r.PFStats[i].Issued
			agg.PFStats[i].Used += r.PFStats[i].Used
			agg.PFStats[i].EvictedUnused += r.PFStats[i].EvictedUnused
		}
		agg.SVRStats = agg.SVRStats.Add(r.SVRStats)
		agg.ExtraSlots += r.ExtraSlots
		agg.Metrics = agg.Metrics.Merge(r.Metrics)
		agg.Energy = energy.Merge(agg.Energy, r.Energy, agg.Instrs)
	}
	agg.IPC, agg.CPI = 0, 0
	if agg.Cycles > 0 {
		agg.IPC = float64(agg.Instrs) / float64(agg.Cycles)
	}
	if agg.Instrs > 0 {
		agg.CPI = float64(agg.Cycles) / float64(agg.Instrs)
	}
	if len(per) > 1 {
		// A stitched timeline would hide the fast-forward gaps; regions
		// report their spread instead.
		agg.Series = nil
	}
	if p.Regions > 1 {
		sum := &RegionSummary{Requested: p.Regions, Simulated: len(per), FastForward: p.FastForward}
		cpis := make([]float64, len(per))
		for i, r := range per {
			sum.IPC = append(sum.IPC, r.IPC)
			cpis[i] = r.CPI
		}
		sum.IPCMean, sum.IPCCI95 = stats.MeanCI95(sum.IPC)
		sum.CPIMean, sum.CPICI95 = stats.MeanCI95(cpis)
		agg.Regions = sum
	}
	return agg
}
