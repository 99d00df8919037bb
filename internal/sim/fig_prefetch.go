package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/svr"
	"repro/internal/workloads"
)

func init() {
	registerExperiment(Experiment{
		ID:    "fig13a",
		Title: "Prefetch accuracy: IMP vs SVR16/64 with and without loop-bound prediction",
		Run:   runFig13a,
	})
	registerExperiment(Experiment{
		ID:    "fig13b",
		Title: "Coverage: DRAM loads by origin, normalized to the in-order baseline",
		Run:   runFig13b,
	})
	registerExperiment(Experiment{
		ID:    "fig14",
		Title: "SPECrate 2017 proxies: SVR overhead on non-vectorizable code",
		Run:   runFig14,
	})
}

// svrMaxlengthConfig disables loop-bound prediction (SVR-Maxlength).
func svrMaxlengthConfig(n int) Config {
	cfg := SVRConfig(n)
	cfg.SVR.LoopBound = svr.Maxlength
	cfg.Label = fmt.Sprintf("SVR%d-Maxlength", n)
	return cfg
}

func prefetchOrigin(label string) cache.Origin {
	if label == "IMP" {
		return cache.OriginIMP
	}
	return cache.OriginSVR
}

func runFig13a(p ExpParams) *Report {
	r := newReport("fig13a", "prefetch accuracy")
	specs := evalSet(p)
	cfgs := []Config{
		MachineConfig(IMP),
		svrMaxlengthConfig(16), SVRConfig(16),
		svrMaxlengthConfig(64), SVRConfig(64),
	}
	m := r.matrix(cfgs, specs, p.Params)

	header := []string{"group"}
	for _, c := range cfgs {
		header = append(header, c.Label)
	}
	t := stats.NewTable(header...)

	perCfgGroup := map[string]map[string]float64{}
	for _, c := range cfgs {
		vals := map[string]float64{}
		for name, res := range m.Row(c.Label) {
			st := res.PFStats[prefetchOrigin(c.Label)]
			if st.Used+st.EvictedUnused > 0 {
				vals[name] = st.Accuracy()
			}
		}
		perCfgGroup[c.Label] = groupMeans(vals)
	}
	for _, g := range append(groupOrder, "Avg.") {
		cells := make([]float64, 0, len(cfgs))
		for _, c := range cfgs {
			gm := perCfgGroup[c.Label]
			v := 0.0
			if g == "Avg." {
				sum, n := 0.0, 0
				for _, g := range sortedKeys(gm) {
					sum += gm[g]
					n++
				}
				if n > 0 {
					v = sum / float64(n)
				}
				r.Values["accuracy."+c.Label] = v
			} else {
				v = gm[g]
			}
			cells = append(cells, v)
		}
		t.AddRowF(g, cells...)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper: SVR very accurate (>=88% even unthrottled); IMP consistently inaccurate except PR/CC")
	return r
}

func runFig13b(p ExpParams) *Report {
	r := newReport("fig13b", "coverage (DRAM load origins vs baseline)")
	specs := evalSet(p)
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), SVRConfig(16), SVRConfig(64)}
	m := r.matrix(cfgs, specs, p.Params)
	base := m.Row("in-order")

	t := stats.NewTable("config", "core(data)", "core(inst)", "stride-pf", "technique", "total (x baseline)")
	for _, c := range cfgs {
		var demand, ifetch, stride, tech, baseTotal float64
		row := m.Row(c.Label)
		for _, name := range sortedKeys(row) {
			res, b := row[name], base[name]
			bt := float64(b.DRAMLoads[cache.OriginDemand] + b.DRAMLoads[cache.OriginStride] + b.IFetchLoads)
			if bt == 0 {
				continue
			}
			baseTotal += 1
			demand += float64(res.DRAMLoads[cache.OriginDemand]) / bt
			ifetch += float64(res.IFetchLoads) / bt
			stride += float64(res.DRAMLoads[cache.OriginStride]) / bt
			tech += float64(res.DRAMLoads[cache.OriginIMP]+res.DRAMLoads[cache.OriginSVR]) / bt
		}
		if baseTotal == 0 {
			continue
		}
		demand /= baseTotal
		ifetch /= baseTotal
		stride /= baseTotal
		tech /= baseTotal
		t.AddRowF(c.Label, demand, ifetch, stride, tech, demand+ifetch+stride+tech)
		r.Values["coverage."+c.Label+".technique"] = tech
		r.Values["coverage."+c.Label+".demand"] = demand
		r.Values["coverage."+c.Label+".total"] = demand + ifetch + stride + tech
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"technique>0 with demand<1 means the prefetcher moved misses off the critical path;",
		"total>1 is over-coverage from inaccurate prefetches (IMP up to +20% in the paper)")
	return r
}

func runFig14(p ExpParams) *Report {
	r := newReport("fig14", "SPEC overhead")
	var specs []workloads.Spec
	if len(p.Workloads) > 0 {
		specs = evalSet(p)
	} else {
		specs = workloads.Group("spec")
	}
	m := r.matrix([]Config{MachineConfig(InO), SVRConfig(16)}, specs, p.Params)
	base, s := m.Row("in-order"), m.Row("SVR16")

	t := stats.NewTable("benchmark", "norm IPC (SVR16 / in-order)")
	var ratios []float64
	for _, spec := range specs {
		ratio := 0.0
		if b := base[spec.Name]; b.IPC > 0 {
			ratio = s[spec.Name].IPC / b.IPC
		}
		ratios = append(ratios, ratio)
		t.AddRowF(spec.Name, ratio)
		r.Values["normipc."+spec.Name] = ratio
	}
	h := stats.HarmonicMean(ratios)
	t.AddRowF("H-mean", h)
	r.Values["hmean"] = h
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper: ~1% average degradation; worst case (wrf) ~3%")
	return r
}
