package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units, directions and bounds (the smoke test keeps the two in
// step).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the simulator sees, reported by
// untraced runs. The bounds sit at 0.25, the largest BENCHMARK.json
// accepts: neighbours on the shared machines slow the simulator by up to
// 2× for tens of seconds at a time (see README.md), so a tighter gate
// would reject unchanged code.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"cpu_ns_per_instr", "ns", "lower", 0.25},
	{"job_gmean_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_mean_mib", "MiB", "lower", 0.25},
}

// boundOf returns an end-to-end metric's regression bound (0 for an
// unknown name).
func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	return 0
}
