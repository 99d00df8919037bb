package sim

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/imp"
	"repro/internal/svr"
)

// Size caps, each above the largest value any experiment uses: a 512 KiB
// L2, 8 ways, 32 MSHRs, a 2048-entry S-TLB, 6 walkers, 128 SVR lanes,
// 64-entry tables and 12-bit predictor tables.
const (
	maxCacheBytes = 16 << 20
	maxWays       = 64
	maxEntries    = 1 << 16
	maxSmall      = 1024 // MSHRs, walkers, ports, widths, queues, lanes
	maxLatency    = 1 << 20
	maxTableBits  = 20
)

// Validate reports whether NewMachine can build c and run it: every
// field a constructor divides by, indexes by or sizes a table from lies
// in range, and every size stays under a cap, so an untrusted config (a
// served job) can neither panic a worker nor exhaust memory. Only the
// parts the core kind builds are checked.
func (c Config) Validate() error {
	var p problems
	p.hier(c.Hier)
	switch c.Core {
	case InO, IMP, SVR:
		p.inOrder(c.InO)
	case OoO:
		p.outOfOrder(c.OoO)
	default:
		p.add("Core = %d is not a machine kind", c.Core)
	}
	switch c.Core {
	case IMP:
		p.impConfig(c.IMP)
	case SVR:
		p.svrOptions(c.SVR)
	}
	if err := errors.Join(p...); err != nil {
		return fmt.Errorf("config %q: %w", c.Label, err)
	}
	return nil
}

// Window caps for Params, each above what any preset or experiment
// uses: BenchScale builds 1<<19-vertex graphs and 1<<22-element arrays,
// and PaperParams runs ten regions of an 8 M-instruction fast-forward
// and a 600 K-instruction detailed window. minScaleSize keeps every
// image builder away from the empty and degenerate inputs it was never
// written for.
const (
	minScaleSize   = 16
	maxGraphNodes  = 1 << 20
	maxElems       = 1 << 23
	maxRegions     = 100
	maxWindow      = 1 << 30 // Warmup and Measure instructions
	maxFastForward = 1 << 34
	maxSamples     = 1 << 16 // Measure / SampleEvery rows of a time series
)

// Validate reports whether a cell can run p: image sizes and window
// lengths lie in range, and sampling stays under maxSamples rows, so an
// untrusted window (a served job) can neither send an image builder
// into a runaway loop nor exhaust memory.
func (p Params) Validate() error {
	var e problems
	e.check("Scale.GraphNodes", int64(p.Scale.GraphNodes), minScaleSize, maxGraphNodes)
	e.check("Scale.Elems", int64(p.Scale.Elems), minScaleSize, maxElems)
	e.check("Regions", int64(p.Regions), 0, maxRegions)
	e.checkCount("Warmup", p.Warmup, maxWindow)
	e.checkCount("Measure", p.Measure, maxWindow)
	e.checkCount("FastForward", p.FastForward, maxFastForward)
	if p.SampleEvery > 0 && p.Measure/p.SampleEvery > maxSamples {
		e.add("SampleEvery = %d cuts Measure = %d into more than %d samples", p.SampleEvery, p.Measure, maxSamples)
	}
	if err := errors.Join(e...); err != nil {
		return fmt.Errorf("params: %w", err)
	}
	return nil
}

// problems collects every out-of-range field of one config or window.
type problems []error

func (p *problems) add(format string, args ...any) { *p = append(*p, fmt.Errorf(format, args...)) }

func (p *problems) check(name string, v, lo, hi int64) {
	if v < lo || v > hi {
		p.add("%s = %d, want %d..%d", name, v, lo, hi)
	}
}

// checkCount is check for unsigned counts, which start at zero.
func (p *problems) checkCount(name string, v, hi uint64) {
	if v > hi {
		p.add("%s = %d, want at most %d", name, v, hi)
	}
}

// checkFloat is check for floats; written as !(in range) so NaN fails.
func (p *problems) checkFloat(name string, v, lo, hi float64) {
	if !(v >= lo && v <= hi) {
		p.add("%s = %g, want %g..%g", name, v, lo, hi)
	}
}

// geometry checks a set-associative shape the way NewCache and NewTLB
// build it: a power-of-two number of sets of ways entries each.
func (p *problems) geometry(name string, entries, ways int) {
	if ways < 1 || ways > maxWays || entries < ways || entries%ways != 0 {
		p.add("%s: %d entries in %d ways is not a whole number of sets", name, entries, ways)
	} else if sets := entries / ways; sets&(sets-1) != 0 {
		p.add("%s: %d sets is not a power of two", name, sets)
	}
}

func (p *problems) hier(h cache.Config) {
	for _, c := range []struct {
		name       string
		size, ways int
	}{{"Hier.L1", h.L1Size, h.L1Ways}, {"Hier.L1I", h.L1ISize, h.L1IWays}, {"Hier.L2", h.L2Size, h.L2Ways}} {
		if c.size < cache.LineSize || c.size > maxCacheBytes || c.size%cache.LineSize != 0 {
			p.add("%sSize = %d, want a whole number of %d-byte lines up to %d", c.name, c.size, cache.LineSize, maxCacheBytes)
		} else {
			p.geometry(c.name, c.size/cache.LineSize, c.ways)
		}
	}
	p.check("Hier.L1MSHRs", int64(h.L1MSHRs), 1, maxSmall)
	p.check("Hier.DTLBEntries", int64(h.DTLBEntries), 1, maxSmall)
	if h.STLBEntries > maxEntries {
		p.add("Hier.STLBEntries = %d, want at most %d", h.STLBEntries, maxEntries)
	} else {
		p.geometry("Hier.STLB", h.STLBEntries, h.STLBWays)
	}
	p.check("Hier.NumPTWs", int64(h.NumPTWs), 1, maxSmall)
	p.check("Hier.StrideDegree", int64(h.StrideDegree), 0, maxSmall)
	p.check("Hier.L1Latency", h.L1Latency, 0, maxLatency)
	p.check("Hier.L2Latency", h.L2Latency, 0, maxLatency)
	p.check("Hier.STLBLatency", h.STLBLatency, 0, maxLatency)
	p.check("Hier.WalkLatency", h.WalkLatency, 0, maxLatency)
	p.checkFloat("Hier.DRAM.FreqGHz", h.DRAM.FreqGHz, 0.1, 100)
	p.checkFloat("Hier.DRAM.LatencyNS", h.DRAM.LatencyNS, 0, 1e5)
	p.checkFloat("Hier.DRAM.BandwidthGBps", h.DRAM.BandwidthGBps, 0.1, 1e5)
	p.check("Hier.DRAM.LineBytes", int64(h.DRAM.LineBytes), 1, 4096)
}

func (p *problems) inOrder(c inorder.Config) {
	p.check("InO.Width", int64(c.Width), 1, maxSmall)
	p.check("InO.Scoreboard", int64(c.Scoreboard), 1, maxSmall)
	p.check("InO.MemPorts", int64(c.MemPorts), 1, maxSmall)
	p.check("InO.StoreBuffer", int64(c.StoreBuffer), 0, maxSmall)
	p.check("InO.BPredTableBits", int64(c.BPredTableBits), 1, maxTableBits)
	p.latencies("InO", c.MispredictPenalty, c.LatALU, c.LatMul, c.LatDiv, c.LatFPU)
}

func (p *problems) outOfOrder(c ooo.Config) {
	p.check("OoO.Width", int64(c.Width), 1, maxSmall)
	p.check("OoO.ROB", int64(c.ROB), 1, maxSmall)
	p.check("OoO.RS", int64(c.RS), 1, maxSmall)
	p.check("OoO.LSQ", int64(c.LSQ), 1, maxSmall)
	p.check("OoO.MemPorts", int64(c.MemPorts), 1, maxSmall)
	p.check("OoO.BPredTableBits", int64(c.BPredTableBits), 1, maxTableBits)
	p.latencies("OoO", c.MispredictPenalty, c.LatALU, c.LatMul, c.LatDiv, c.LatFPU)
}

func (p *problems) latencies(core string, mispredict, alu, mul, div, fpu int64) {
	p.check(core+".MispredictPenalty", mispredict, 0, maxLatency)
	p.check(core+".LatALU", alu, 0, maxLatency)
	p.check(core+".LatMul", mul, 0, maxLatency)
	p.check(core+".LatDiv", div, 0, maxLatency)
	p.check(core+".LatFPU", fpu, 0, maxLatency)
}

func (p *problems) impConfig(c imp.Config) {
	p.check("IMP.StrideEntries", int64(c.StrideEntries), 1, maxEntries)
	p.check("IMP.IPTEntries", int64(c.IPTEntries), 1, maxEntries)
	p.check("IMP.Distance", int64(c.Distance), 0, maxSmall)
	p.check("IMP.MaxShift", int64(c.MaxShift), 0, 63) // 255 would never end its uint8 loop
}

// svrOptions checks the options svr.New keeps after Normalize raises the
// minimums: counts are capped and enums must be known.
func (p *problems) svrOptions(o svr.Options) {
	p.check("SVR.VectorLen", int64(o.VectorLen), 0, maxSmall)
	p.check("SVR.SRFRegs", int64(o.SRFRegs), 0, 256)
	p.check("SVR.SDEntries", int64(o.SDEntries), 0, maxEntries)
	p.check("SVR.LBDSize", int64(o.LBDSize), 0, maxEntries)
	p.check("SVR.ScalarsPerSlot", int64(o.ScalarsPerSlot), 0, maxSmall)
	p.check("SVR.Width", int64(o.Width), 0, maxSmall)
	p.check("SVR.RegCopyCycles", o.RegCopyCycles, 0, maxLatency)
	p.check("SVR.LoopBound", int64(o.LoopBound), int64(svr.Tournament), int64(svr.LBDCV))
	p.check("SVR.Recycle", int64(o.Recycle), int64(svr.RecycleLRU), int64(svr.RecycleNone))
	p.checkFloat("SVR.AccuracyMin", o.AccuracyMin, 0, 1)
}
