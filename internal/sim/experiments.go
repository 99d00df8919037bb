package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Report is the output of one experiment: printable tables plus named
// scalar values the tests assert against, the scheduler counters of
// every grid the experiment ran, and each grid cell's registry snapshot
// and time series (when it carries one).
type Report struct {
	ID          string
	Title       string
	Tables      []*stats.Table
	Charts      []*stats.BarChart
	Notes       []string
	Values      map[string]float64
	Sched       SchedStats
	CellMetrics []CellMetrics
	CellSeries  []CellSeries
}

// CellMetrics pairs one scheduler cell with its metric snapshot.
type CellMetrics struct {
	Label    string
	Workload string
	Metrics  metrics.Snapshot
}

// CellSeries pairs one scheduler cell with its interval time series.
type CellSeries struct {
	Label    string
	Workload string
	Series   *TimeSeries
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: map[string]float64{}}
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, c := range r.Charts {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders every table of the report as CSV blocks for plotting.
func (r *Report) CSV() string {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "# %s: %s\n", r.ID, r.Title)
		b.WriteString(t.CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the report machine-readably: identity, notes, every named
// value, the raw tables, and the scheduler counters. Wall time is the
// only non-deterministic field.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID          string
		Title       string
		Notes       []string `json:",omitempty"`
		Values      map[string]float64
		Tables      []*stats.Table `json:",omitempty"`
		Sched       SchedStats
		CellMetrics []CellMetrics `json:",omitempty"`
		CellSeries  []CellSeries  `json:",omitempty"`
	}{r.ID, r.Title, r.Notes, r.Values, r.Tables, r.Sched, r.CellMetrics, r.CellSeries}, "", "  ")
}

// matrix runs the cell scheduler over the grid and folds its counters,
// each cell's metric snapshot and every time series a cell carries
// (Params.SampleEvery) into the report, cells in (workload, label) order.
func (r *Report) matrix(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet {
	rs := runMatrix(cfgs, specs, p)
	r.Sched.add(rs.Stats)
	wls := make([]string, len(specs))
	for i, spec := range specs {
		wls[i] = spec.Name
	}
	labels := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		labels[i] = cfg.Label
	}
	sort.Strings(wls)
	sort.Strings(labels)
	for _, wl := range wls {
		for _, label := range labels {
			res, ok := rs.Get(label, wl)
			if !ok {
				continue
			}
			r.CellMetrics = append(r.CellMetrics, CellMetrics{Label: label, Workload: wl, Metrics: res.Metrics})
			if res.Series != nil {
				r.CellSeries = append(r.CellSeries, CellSeries{Label: label, Workload: wl, Series: res.Series})
			}
		}
	}
	return rs
}

// ExpParams extends the simulation window with an optional workload
// filter (nil = the experiment's default set).
type ExpParams struct {
	Params
	Workloads []string
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(p ExpParams) *Report
}

var experiments []Experiment

func registerExperiment(e Experiment) { experiments = append(experiments, e) }

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment { return experiments }

// GetExperiment finds an experiment by ID.
func GetExperiment(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("sim: unknown experiment %q (have %s)", id, expIDs())
}

func expIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// evalSet resolves the workload list for an experiment.
func evalSet(p ExpParams) []workloads.Spec {
	if len(p.Workloads) == 0 {
		return workloads.Evaluation()
	}
	var out []workloads.Spec
	for _, n := range p.Workloads {
		spec, err := workloads.Get(n)
		if err != nil {
			panic(err)
		}
		out = append(out, spec)
	}
	return out
}

// sweepSet is the representative subset used by the sensitivity sweeps
// (Figs 15-18), covering each behaviour class: simple stride-indirect,
// nested graph traversal, hash probing, histogramming, and random access.
var sweepSet = []string{"BFS_KR", "PR_UR", "CC_TW", "SSSP_LJN", "HJ2", "NAS-IS", "Randacc"}

func sweepWorkloads(p ExpParams) []workloads.Spec {
	if len(p.Workloads) > 0 {
		return evalSet(p)
	}
	var out []workloads.Spec
	for _, n := range sweepSet {
		s, err := workloads.Get(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// normIPCs returns per-workload IPC of cfg normalized to the baseline.
func normIPCs(base, other map[string]Result) []float64 {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]float64, 0, len(names))
	for _, n := range names {
		b, o := base[n], other[n]
		if b.IPC > 0 {
			out = append(out, o.IPC/b.IPC)
		}
	}
	return out
}

// hmeanSpeedup aggregates normalized IPC with the harmonic mean, as the
// paper does.
func hmeanSpeedup(base, other map[string]Result) float64 {
	return stats.HarmonicMean(normIPCs(base, other))
}

// meanNormEnergy returns mean energy-per-instruction normalized to base.
func meanNormEnergy(base, other map[string]Result) float64 {
	var xs []float64
	for n, b := range base {
		if o, ok := other[n]; ok && b.Energy.NJPerInstr > 0 {
			xs = append(xs, o.Energy.NJPerInstr/b.Energy.NJPerInstr)
		}
	}
	return stats.ArithMean(xs)
}

// workloadGroup buckets a workload name for the grouped figures
// (Fig 3, 13, 15): GAP kernels by kernel, everything else "HPC-DB".
func workloadGroup(name string) string {
	for _, k := range []string{"BC", "BFS", "CC", "PR", "SSSP"} {
		if strings.HasPrefix(name, k+"_") {
			return k
		}
	}
	return "HPC-DB"
}

var groupOrder = []string{"BC", "BFS", "CC", "PR", "SSSP", "HPC-DB"}

// groupMeans averages per-workload values into the named groups.
func groupMeans(vals map[string]float64) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for name, v := range vals {
		g := workloadGroup(name)
		sums[g] += v
		counts[g]++
	}
	out := map[string]float64{}
	for g, s := range sums {
		out[g] = s / counts[g]
	}
	return out
}

// standardConfigs returns the Fig 1/11/12 machine list: in-order, IMP,
// OoO, and SVR at widths 8..128.
func standardConfigs() []Config {
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO)}
	for _, n := range []int{8, 16, 32, 64, 128} {
		cfgs = append(cfgs, SVRConfig(n))
	}
	return cfgs
}
