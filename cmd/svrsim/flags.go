package main

import (
	"flag"
	"fmt"
	"strings"
	"sync"

	"repro/internal/grid"
	"repro/internal/sim"
)

// The process-wide grid scheduler. Every subcommand that executes a
// (config × workload) matrix — run, all, bench, compare, serve — is a
// thin client of this one scheduler core: scheduler() installs it as the
// sim matrix runner, so experiment grids, ad-hoc comparisons and served
// jobs share the same queue, worker pool and artifact store.
var (
	schedOnce sync.Once
	schedOpts grid.Options
	sched     *grid.Scheduler
)

// scheduler returns the shared scheduler, creating it on first use.
// serve sets schedOpts (workers, queue bound) before this first call.
func scheduler() *grid.Scheduler {
	schedOnce.Do(func() {
		sched = grid.New(schedOpts)
		sim.SetMatrixRunner(sched.RunMatrix)
	})
	return sched
}

// gridFlags is the window/grid flag block shared by run, all and bench:
// one definition of -quick/-scale/-measure/-warmup/-ff/-regions/-ckpt/
// -workloads instead of a per-subcommand copy.
type gridFlags struct {
	quick   *bool
	scale   *string
	measure *uint64
	warmup  *uint64
	ff      *uint64
	regions *int
	ckpt    *bool
	wls     *string
}

// addGridFlags registers the shared grid flags on fs.
func addGridFlags(fs *flag.FlagSet) *gridFlags {
	return &gridFlags{
		quick:   fs.Bool("quick", false, "small inputs, short windows"),
		scale:   fs.String("scale", "", "window preset: quick, default, or paper (multi-region sampled)"),
		measure: fs.Uint64("measure", 0, "measured instructions"),
		warmup:  fs.Uint64("warmup", 0, "warmup instructions"),
		ff:      fs.Uint64("ff", 0, "functionally fast-forward (with warming) this many instructions before each region"),
		regions: fs.Int("regions", 0, "detailed regions per cell, stitched by fast-forward"),
		ckpt:    fs.Bool("ckpt", false, "replace detailed warmup with a shared functionally-warmed fast-forward checkpoint"),
		wls:     fs.String("workloads", "", "comma-separated workload filter"),
	}
}

// params folds the parsed flags into simulation parameters and the
// workload filter. def is the subcommand's base window when no scale
// flag is given (DefaultParams for run/all, QuickParams for bench).
func (g *gridFlags) params(def sim.Params) (sim.Params, []string, error) {
	p := def
	switch *g.scale {
	case "":
		if *g.quick {
			p = sim.QuickParams()
		}
	case "quick":
		p = sim.QuickParams()
	case "default":
		p = sim.DefaultParams()
	case "paper":
		p = sim.PaperParams()
	default:
		return sim.Params{}, nil, fmt.Errorf("unknown -scale %q (want quick, default, or paper)", *g.scale)
	}
	if *g.measure > 0 {
		p.Measure = *g.measure
	}
	if *g.warmup > 0 {
		p.Warmup = *g.warmup
	}
	if *g.ff > 0 {
		p.FastForward = *g.ff
		p.Warm = true
	}
	if *g.regions > 0 {
		p.Regions = *g.regions
	}
	if *g.ckpt {
		foldCheckpoint(&p)
	}
	var wls []string
	if *g.wls != "" {
		wls = strings.Split(*g.wls, ",")
	}
	return p, wls, nil
}

// foldCheckpoint trades the detailed warmup for a (shared, checkpointed)
// functionally-warmed fast-forward of the same length.
func foldCheckpoint(p *sim.Params) {
	p.FastForward += p.Warmup
	p.Warm = true
	p.Warmup = 0
}
