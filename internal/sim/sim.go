// Package sim ties the substrates together: it runs a workload on a
// configured machine (in-order, in-order+IMP, out-of-order, or
// in-order+SVR) and collects the measurements the paper's figures are
// built from. The experiments subfiles (fig*.go) regenerate each table
// and figure of the evaluation.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/energy"
	"repro/internal/imp"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/svr"
	"repro/internal/workloads"
)

// CoreKind selects the machine organization (Table III columns + IMP).
type CoreKind int

// Machine kinds.
const (
	InO CoreKind = iota // baseline 3-wide in-order (Cortex-A510-like)
	IMP                 // in-order + indirect memory prefetcher
	OoO                 // 3-wide out-of-order, 32-entry ROB
	SVR                 // in-order + scalar vector runahead
)

// String names the kind as in the figures.
func (k CoreKind) String() string {
	switch k {
	case InO:
		return "in-order"
	case IMP:
		return "IMP"
	case OoO:
		return "out-of-order"
	default:
		return "SVR"
	}
}

// Config describes one machine to simulate.
type Config struct {
	Core CoreKind
	Hier cache.Config
	InO  inorder.Config
	OoO  ooo.Config
	IMP  imp.Config
	SVR  svr.Options

	Label string // display label ("SVR16" etc.)
}

// MachineConfig builds the default Table III machine of the given kind.
func MachineConfig(kind CoreKind) Config {
	cfg := Config{
		Core:  kind,
		Hier:  cache.DefaultConfig(),
		InO:   inorder.DefaultConfig(),
		OoO:   ooo.DefaultConfig(),
		IMP:   imp.DefaultConfig(),
		SVR:   svr.DefaultOptions(),
		Label: kind.String(),
	}
	// The paper re-enables a banned SVR every one million instructions;
	// our measurement windows are ~300x shorter than its 200M-instruction
	// regions, so the recheck interval scales accordingly (DESIGN.md,
	// substitution 4).
	cfg.SVR.AccuracyRecheck = 100_000
	return cfg
}

// SVRConfig builds an SVR machine with vector length n.
func SVRConfig(n int) Config {
	cfg := MachineConfig(SVR)
	cfg.SVR.VectorLen = n
	cfg.Label = fmt.Sprintf("SVR%d", n)
	return cfg
}

// Params controls a simulation window.
type Params struct {
	Scale   workloads.Scale
	Warmup  uint64 // instructions before statistics reset
	Measure uint64 // measured instructions

	// FastForward, when non-zero, functionally executes this many
	// instructions (no DynInstr streaming, no timing models) before each
	// detailed region. No grid cell runs a whole gap itself: the
	// experiment scheduler captures each region start as a shared
	// checkpoint, the first after the first fast-forward and each later
	// one after the previous window and the next gap (cachedStart), so a
	// workload's gaps run once per warm geometry and every compatible
	// config cell restores them. An IMP or SVR cell warms the head of
	// each gap itself first (see Warm).
	FastForward uint64
	// Warm enables functional warming during fast-forward: cache, TLB,
	// prefetch-tag and branch-predictor state is updated alongside the
	// architectural execution at ~zero timing cost, letting the detailed
	// warmup shrink or disappear. A later region's start is warmed
	// through the previous window as well as the gap, so it holds the
	// cache state warming leaves, not the one the cell's own prefetches
	// left. An IMP or SVR cell warms the head of each gap in place until
	// the gap has used or evicted every line its prefetcher left tagged,
	// and differs from one that warmed the whole gap in place only where
	// the rest of the gap does not wash its prefetched lines out.
	Warm bool
	// Regions, when above one, runs that many detailed warmup+measure
	// windows stitched together by fast-forward gaps and aggregates
	// them; Result.Regions carries the per-region spread.
	Regions int

	// SampleEvery, when non-zero, turns on interval sampling: the
	// measurement window is chunked into SampleEvery-instruction
	// intervals and each contributes one row to Result.Series. Sampling
	// does not perturb the simulated timing.
	SampleEvery uint64
}

// DefaultParams returns the standard evaluation window (a scaled-down
// stand-in for the paper's 200 M-instruction regions; see DESIGN.md).
func DefaultParams() Params {
	return Params{Scale: workloads.BenchScale(), Warmup: 300_000, Measure: 600_000}
}

// QuickParams is a faster window for tests: smaller graphs, but still
// several times the L2 so the memory-bound regime holds.
func QuickParams() Params {
	return Params{Scale: workloads.Scale{GraphNodes: 1 << 16, Elems: 1 << 18, Seed: 42},
		Warmup: 60_000, Measure: 200_000}
}

// PaperParams is the paper-scale sampled window: up to ten detailed
// regions spread across the workload by functionally-warmed
// fast-forward, so a cell's samples span the longest default-scale
// workloads (~96 M dynamic instructions — the closest our budget gets to
// the paper's 200 M-instruction regions) while detailed simulation
// covers only the measured windows. The 8 M-instruction gaps run once
// per workload and warm geometry, as the chain of region-start
// checkpoints every cell restores. Shorter workloads simply run fewer
// regions: the schedule stops at program end and the aggregate reports
// how many regions actually ran.
func PaperParams() Params {
	return Params{
		Scale:       workloads.BenchScale(),
		FastForward: 8_000_000,
		Warm:        true,
		Regions:     10,
		Warmup:      100_000,
		Measure:     500_000,
	}
}

// chained reports whether p's regions start at checkpoints: after a
// fast-forward, or after an earlier region.
func (p Params) chained() bool { return p.FastForward > 0 || p.Regions > 1 }

// warmGaps reports whether the fast-forward to a region start warms;
// back-to-back regions (no fast-forward) warm nothing.
func (p Params) warmGaps() bool { return p.Warm && p.FastForward > 0 }

// Result is the measurement record of one run.
type Result struct {
	Workload string
	Label    string

	Instrs uint64
	Cycles int64
	IPC    float64
	CPI    float64
	Stack  stats.CPIStack

	Energy energy.Report

	DRAMLoads   [cache.NumOrigins]int64
	IFetchLoads int64
	Writebacks  int64
	PFStats     [cache.NumOrigins]cache.PFStats

	SVRStats   svr.Stats
	ExtraSlots int64

	// Metrics is the machine's full registry snapshot for the measurement
	// window — every counter and latency histogram, keyed by metric name.
	Metrics metrics.Snapshot

	// Series is the interval-sampled timeline of the measurement window;
	// nil unless Params.SampleEvery was set (and dropped when a run
	// aggregates more than one region).
	Series *TimeSeries `json:",omitempty"`

	// Regions summarizes the per-region spread of a multi-region sampled
	// run; nil for single-window runs.
	Regions *RegionSummary `json:",omitempty"`
}

// Run simulates one workload on one machine. It builds a fresh instance
// and always executes — the memoized run cache only fronts the experiment
// scheduler (runMatrix), so callers that depend on real execution (e.g.
// architectural self-checks on the mutated memory image) stay exact.
// It panics if cfg names a core kind with no registered Machine.
func Run(spec workloads.Spec, cfg Config, p Params) Result {
	m, err := NewMachine(cfg, spec.Build(p.Scale))
	if err != nil {
		panic(err)
	}
	return Simulate(m, p)
}

func (r *Result) fillCommon(instrs uint64, cycles int64, stack stats.CPIStack, h *cache.Hierarchy) {
	r.Instrs = instrs
	r.Cycles = cycles
	if cycles > 0 {
		r.IPC = float64(instrs) / float64(cycles)
	}
	if instrs > 0 {
		r.CPI = float64(cycles) / float64(instrs)
	}
	r.Stack = stack
	r.DRAMLoads = h.DRAMLoads
	r.IFetchLoads = h.IFetchLoads
	r.Writebacks = h.Writebacks
	r.PFStats = h.Tracker.Stats
}

// RunByName looks a workload up and simulates it.
func RunByName(name string, cfg Config, p Params) (Result, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return Result{}, err
	}
	return Run(spec, cfg, p), nil
}
