package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cellView renders the finished cells of one cell command: one Result
// per -config entry, in that order.
type cellView func(w io.Writer, cfgs []sim.Config, rs []sim.Result) error

var cellViews = map[string]cellView{
	"summary": writeSummary,
	"compare": writeCompare,
	"metrics": writeMetricsTable,
	"prom":    writePrometheus,
	"json":    writeResultsJSON,
}

// cmdCell runs one workload on each named machine as one job on the
// shared scheduler, so its configs and window are validated and its
// cells memoize like any tenant's, and renders them in one -format.
func cmdCell(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cell: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("cell", flag.ContinueOnError)
	configF := fs.String("config", "svr16", "comma-separated machines: inorder, imp, ooo, svrN")
	formatF := fs.String("format", "summary", "output format: summary, compare, metrics, prom, json")
	g := addGridFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if _, err := lookupWorkload(name); err != nil {
		return err
	}
	view, ok := cellViews[*formatF]
	if !ok {
		return fmt.Errorf("unknown format %q (want summary, compare, metrics, prom, json)", *formatF)
	}
	var cfgs []sim.Config
	for _, c := range strings.Split(*configF, ",") {
		cfg, err := grid.ParseConfig(c)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	if *formatF == "prom" && len(cfgs) > 1 {
		return fmt.Errorf("cell: -format prom takes one config, got %d", len(cfgs))
	}
	p, err := g.params()
	if err != nil {
		return err
	}
	job, err := scheduler().Submit(grid.JobRequest{Configs: cfgs, Workloads: []string{name}, Params: p})
	if err != nil {
		return err
	}
	set := job.Wait()
	rs := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		if rs[i], ok = set.Get(cfg.Label, name); !ok {
			return fmt.Errorf("cell: missing cell %s/%s", cfg.Label, name)
		}
	}
	return view(w, cfgs, rs)
}

// writeSummary prints each cell's headline numbers, plus the
// prefetcher's account on IMP and SVR machines.
func writeSummary(w io.Writer, cfgs []sim.Config, rs []sim.Result) error {
	for i, res := range rs {
		fmt.Fprintf(w, "workload   %s on %s\n", res.Workload, res.Label)
		fmt.Fprintf(w, "instrs     %d\n", res.Instrs)
		fmt.Fprintf(w, "cycles     %d\n", res.Cycles)
		fmt.Fprintf(w, "IPC        %.3f   CPI %.3f\n", res.IPC, res.CPI)
		fmt.Fprintf(w, "CPI stack  %s\n", res.Stack.String())
		fmt.Fprintf(w, "energy     %.2f nJ/instr, core power %.3f W\n",
			res.Energy.NJPerInstr, res.Energy.CorePowerW)
		fmt.Fprintf(w, "DRAM loads demand=%d stride=%d imp=%d svr=%d (writebacks %d)\n",
			res.DRAMLoads[cache.OriginDemand], res.DRAMLoads[cache.OriginStride],
			res.DRAMLoads[cache.OriginIMP], res.DRAMLoads[cache.OriginSVR], res.Writebacks)
		var pf cache.PFStats
		switch cfgs[i].Core {
		case sim.SVR:
			s := res.SVRStats
			fmt.Fprintf(w, "SVR        rounds=%d svis=%d scalars=%d timeouts=%d nested=%d retargets=%d chains=%d masked=%d bans=%d\n",
				s.Rounds, s.SVIs, s.Scalars, s.Timeouts, s.NestedAborts, s.Retargets, s.ChainStarts, s.MaskedLanes, s.Bans)
			pf = res.PFStats[cache.OriginSVR]
		case sim.IMP:
			pf = res.PFStats[cache.OriginIMP]
		default:
			continue
		}
		fmt.Fprintf(w, "prefetch   issued=%d used=%d evicted-unused=%d accuracy=%.1f%%\n",
			pf.Issued, pf.Used, pf.EvictedUnused, pf.Accuracy()*100)
	}
	return nil
}

// writeCompare prints the cells side by side, with each machine's
// speedup over the first config's.
func writeCompare(w io.Writer, _ []sim.Config, rs []sim.Result) error {
	t := stats.NewTable("machine", "CPI", "speedup", "nJ/instr", "core W", "DRAM loads")
	chart := stats.NewBarChart("speedup over "+rs[0].Label, "x")
	for _, res := range rs {
		var dram int64
		for _, v := range res.DRAMLoads {
			dram += v
		}
		sp := rs[0].CPI / res.CPI
		t.AddRow(res.Label,
			fmt.Sprintf("%.2f", res.CPI),
			fmt.Sprintf("%.2fx", sp),
			fmt.Sprintf("%.2f", res.Energy.NJPerInstr),
			fmt.Sprintf("%.3f", res.Energy.CorePowerW),
			fmt.Sprintf("%d", dram))
		chart.Add(res.Label, sp)
	}
	fmt.Fprintf(w, "%s on every machine:\n%s\n%s", rs[0].Workload, t, chart)
	return nil
}

// writeMetricsTable prints each cell's full metric registry, every
// counter and latency histogram, led by its DRAM-served load latency.
func writeMetricsTable(w io.Writer, _ []sim.Config, rs []sim.Result) error {
	for _, res := range rs {
		fmt.Fprintf(w, "metrics for %s on %s (%d instrs, %d cycles)\n",
			res.Workload, res.Label, res.Instrs, res.Cycles)
		if lat, ok := res.Metrics.Histograms["lat.demand.mem"]; ok && lat.Count > 0 {
			fmt.Fprintf(w, "demand-load latency (DRAM-served): p50~%.0f p99~%.0f cycles over %d loads\n",
				lat.QuantileEst(0.50), lat.QuantileEst(0.99), lat.Count)
		}
		res.Metrics.WriteTable(w)
	}
	return nil
}

// writePrometheus prints the one cell's registry in the Prometheus text
// exposition format.
func writePrometheus(w io.Writer, _ []sim.Config, rs []sim.Result) error {
	rs[0].Metrics.WritePrometheus(w)
	return nil
}

// writeResultsJSON prints each cell's whole Result as indented JSON.
func writeResultsJSON(w io.Writer, _ []sim.Config, rs []sim.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	for _, res := range rs {
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	return nil
}
