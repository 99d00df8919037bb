package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	why  string // why the benchmark has it: which layers it loads, which it bypasses
	// setup builds the workload's inputs and starts what its jobs run on;
	// it is set-up time, outside the timed region.
	setup func(b *bench) error
	// next returns client c's next job of the round in progress, or false
	// when the round has no more for it.
	next func(b *bench, c int) (job, bool)
	// checks is how many simulated cells a run recomputes from scratch.
	checks int
}

var workloadList = []*workload{quickGrid, paperSampled, serveOverlap}

func lookupWorkload(name string) (*workload, error) {
	for _, wl := range workloadList {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	out := make([]string, len(workloadList))
	for i, wl := range workloadList {
		out[i] = wl.name
	}
	return out
}

func specsOf(names []string) []workloads.Spec {
	out := make([]workloads.Spec, len(names))
	for i, n := range names {
		s, err := workloads.Get(n)
		if err != nil {
			panic(err) // the names below are the registry's own
		}
		out[i] = s
	}
	return out
}

// warmImages builds the images of specs at scale sc into the artifact
// store by running a one-instruction in-order cell of each, so the timed
// jobs start with their inputs resident.
func (b *bench) warmImages(specs []workloads.Spec, sc workloads.Scale) error {
	_, err := b.runGrid([]sim.Config{sim.MachineConfig(sim.InO)}, specs, sim.Params{Scale: sc, Measure: 1})
	return err
}

// quickGrid is the cold quick-scale experiment grid of `svrsim all -quick
// -cold`, cut into jobs of one experiment on one workload, run through
// the scheduler, its report pinned. A round runs every experiment once,
// each on a fixed pick from its workload set.
var quickGrid = &workload{
	name:   "quick-grid",
	why:    "svrsim all -quick -cold: SVR-heavy cold cells, so cache, TLB, SVR and cohort layers do the work",
	checks: 8,
	setup: func(b *bench) error {
		sim.SetRunCacheEnabled(false) // cold, as -cold: every cell simulates
		p := b.sized(sim.QuickParams())
		var names []string
		for ei, e := range sim.Experiments() {
			set, ok := quickGridSets[e.ID]
			if !ok {
				set = evaluationNames()
			}
			if len(set) == 0 {
				continue
			}
			w := set[fixedOrder(len(set), int64(ei+1))[0]]
			key := e.ID + "/" + w
			b.list = append(b.list, job{key: key, run: func() (jobOut, error) {
				rep := e.Run(sim.ExpParams{Params: p, Workloads: []string{w}})
				return jobOut{outputs: []output{{key, digestBytes([]byte(rep.String()))}}}, nil
			}})
			names = append(names, w)
		}
		b.list = b.list[:b.roundSize(len(b.list))]
		names = names[:len(b.list)]
		sim.SetMatrixRunner(func(cfgs []sim.Config, specs []workloads.Spec, p sim.Params) *sim.ResultSet {
			rs, err := b.runGrid(cfgs, specs, p)
			if err == nil {
				err = b.addCells(rs, cfgs, specs, p)
			}
			if err != nil {
				panic(err) // the MatrixRunner contract has no error; runJob turns this into a failed job
			}
			return rs
		})
		return b.warmImages(specsOf(dedup(names)), p.Scale)
	},
	next: func(b *bench, _ int) (job, bool) { return b.nextListed() },
}

// quickGridSets is each experiment's default workload set as
// internal/sim defines it: none for the tables and the multicore
// extension (they bypass the grid scheduler, so they are left out), the
// SPEC proxies for fig14, and sim's sweepSet for the sensitivity sweeps.
// Experiments not listed run on the evaluation set.
var quickGridSets = map[string][]string{
	"table1":    nil,
	"table2":    nil,
	"table3":    nil,
	"multicore": nil,
	"fig14":     workloads.SPECNames(),
	"fig15":     sweepSet,
	"fig16":     sweepSet,
	"fig17":     sweepSet,
	"fig18":     sweepSet,
	"ablations": sweepSet,
}

var sweepSet = []string{"BFS_KR", "PR_UR", "CC_TW", "SSSP_LJN", "HJ2", "NAS-IS", "Randacc"}

func evaluationNames() []string {
	var out []string
	for _, s := range workloads.Evaluation() {
		out = append(out, s.Name)
	}
	return out
}

func dedup(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// fixedOrder is a permutation of 0..n-1 that does not depend on the run's
// seed: the seed varies the inputs, never which jobs a run gets through.
func fixedOrder(n int, salt int64) []int {
	return rand.New(rand.NewSource(salt)).Perm(n)
}

// gridJob runs cfgs × spec as one scheduler job and digests its cells
// in label order under key.
func (b *bench) gridJob(key string, cfgs []sim.Config, spec workloads.Spec, p sim.Params) (jobOut, error) {
	specs := []workloads.Spec{spec}
	rs, err := b.runGrid(cfgs, specs, p)
	if err != nil {
		return jobOut{}, err
	}
	if err := b.addCells(rs, cfgs, specs, p); err != nil {
		return jobOut{}, err
	}
	labels := make([]string, len(cfgs))
	for i, c := range cfgs {
		labels[i] = c.Label
	}
	sort.Strings(labels)
	var all []byte
	for _, l := range labels {
		res, _ := rs.Get(l, spec.Name)
		d, err := digestJSON(res)
		if err != nil {
			return jobOut{}, err
		}
		all = append(all, d...)
	}
	return jobOut{outputs: []output{{key, digestBytes(all)}}}, nil
}

// paperWorkloads and paperConfigs are the paper-sampled grid: fig1's
// machines on three workloads of different shape (graph traversal,
// histogram, hash probe).
var paperWorkloads = []string{"BFS_KR", "NAS-IS", "HJ8"}

func paperConfigs() []sim.Config {
	cfgs := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP), sim.MachineConfig(sim.OoO)}
	for _, n := range []int{8, 16, 32, 64, 128} {
		cfgs = append(cfgs, sim.SVRConfig(n))
	}
	return cfgs
}

// paperSampled runs fig1's machines at paper scale with two sampled
// regions per cell, one cell per job. A round is two passes over the
// workloads: pass r pairs workload w with machine (r + 3w) mod 8, so a
// round spreads over all three workloads and six of the machines
// (in-order, IMP and SVR8/16/64/128), each pair once.
var paperSampled = &workload{
	name:   "paper-sampled",
	why:    "PaperParams with 2 regions: warmed fast-forward, 10x larger images, live multi-region windows; replay and cohorts bypassed",
	checks: 3,
	setup: func(b *bench) error {
		sim.SetRunCacheEnabled(false)
		p := sim.PaperParams()
		p.Regions = 2
		p = b.sized(p)
		specs := specsOf(paperWorkloads)
		cfgs := paperConfigs()
		for r := 0; r < 2; r++ {
			for w, spec := range specs {
				cfg := cfgs[(r+3*w)%len(cfgs)]
				b.list = append(b.list, job{key: cfg.Label + "/" + spec.Name, run: func() (jobOut, error) {
					return b.gridJob(cfg.Label+"/"+spec.Name, []sim.Config{cfg}, spec, p)
				}})
			}
		}
		b.list = b.list[:b.roundSize(len(b.list))]
		return b.warmImages(specs, p.Scale)
	},
	next: func(b *bench, _ int) (job, bool) { return b.nextListed() },
}
