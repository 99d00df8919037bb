package sim

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// TimeSeries is the interval-sampled view of one run: every Interval
// instructions of the measurement window contributes one row of derived
// rates (IPC, MPKIs, DRAM occupancy, SVR activity, CPI-stack split,
// demand-latency quantiles). Columns names the row layout once so the
// CSV/JSON forms stay self-describing.
type TimeSeries struct {
	Interval uint64
	Columns  []string
	Rows     [][]float64
}

// seriesColumns is the fixed row layout. The first two columns are
// cumulative positions (instructions and cycles into the measurement
// window); everything after is a per-interval rate or level.
func seriesColumns() []string {
	cols := []string{
		"instrs", "cycles", "ipc",
		"l1d_mpki", "l2_mpki", "branch_mpki",
		"dram_lines_pki", "dram_busy",
		"svr_rounds", "svr_svis", "svr_coverage", "svr_banned",
	}
	for r := stats.StallReason(0); r < stats.NumStallReasons; r++ {
		cols = append(cols, "cpi_"+strings.ReplaceAll(r.String(), "-", "_"))
	}
	return append(cols, "demand_p50", "demand_p99")
}

// seriesRow derives one row from an interval's counter deltas. d carries
// the registry delta for the interval, dStack the CPI-stack delta,
// dInstr/dCyc the interval width, and cumInstr/cumCyc the position.
func seriesRow(d metrics.Snapshot, dStack stats.CPIStack,
	dInstr uint64, dCyc int64, cumInstr uint64, cumCyc int64) []float64 {
	pki := func(name string) float64 {
		if dInstr == 0 {
			return 0
		}
		return float64(d.Counters[name]) * 1000 / float64(dInstr)
	}
	row := make([]float64, 0, len(seriesColumns()))
	row = append(row, float64(cumInstr), float64(cumCyc))
	if dCyc > 0 {
		row = append(row, float64(dInstr)/float64(dCyc))
	} else {
		row = append(row, 0)
	}
	row = append(row,
		pki("l1d.misses"), pki("l2.misses"), pki("bpred.mispredicts"),
		pki("dram.lines"))
	if dCyc > 0 {
		row = append(row, float64(d.Counters["dram.busy_cycles"])/float64(dCyc))
	} else {
		row = append(row, 0)
	}
	row = append(row, float64(d.Counters["svr.rounds"]), float64(d.Counters["svr.svis"]))
	// Coverage: of the demand-side DRAM pressure this interval, the share
	// absorbed by SVR prefetches that were actually used.
	used := d.Counters["pf.svr.used"]
	demand := d.Counters["dram.loads.demand"]
	if used+demand > 0 {
		row = append(row, float64(used)/float64(used+demand))
	} else {
		row = append(row, 0)
	}
	row = append(row, float64(d.Gauges["svr.banned"]))
	for r := stats.StallReason(0); r < stats.NumStallReasons; r++ {
		if dInstr > 0 {
			row = append(row, dStack.Cycles[r]/float64(dInstr))
		} else {
			row = append(row, 0)
		}
	}
	lat := d.Histograms["lat.demand.mem"]
	return append(row, lat.QuantileEst(0.50), lat.QuantileEst(0.99))
}

// stackDelta subtracts two cumulative CPI stacks.
func stackDelta(cur, prev stats.CPIStack) stats.CPIStack {
	d := stats.CPIStack{Instrs: cur.Instrs - prev.Instrs}
	for r := range cur.Cycles {
		d.Cycles[r] = cur.Cycles[r] - prev.Cycles[r]
	}
	return d
}

// seriesSampler builds one machine's TimeSeries: each tick closes the
// interval since the previous one from registry and CPI-stack deltas.
// Sampling only reads state, so it never perturbs the simulated timing.
// Create it right after the warmup reset.
type seriesSampler struct {
	m         Machine
	ts        *TimeSeries
	base      int64
	prev      metrics.Snapshot
	prevStack stats.CPIStack
	prevInstr uint64
	prevCyc   int64
}

func newSeriesSampler(m Machine, every uint64) *seriesSampler {
	return &seriesSampler{m: m, prev: m.Registry().Snapshot(), base: m.Now(),
		ts: &TimeSeries{Interval: every, Columns: seriesColumns()}, prevStack: m.Stack()}
}

// tick closes the interval ending at the machine's current position; it
// is a no-op when nothing issued since the previous tick.
func (s *seriesSampler) tick() {
	instr, cyc := s.m.Instrs(), s.m.Now()-s.base
	if instr == s.prevInstr {
		return
	}
	cur := s.m.Registry().Snapshot()
	stack := s.m.Stack()
	s.ts.Rows = append(s.ts.Rows, seriesRow(cur.Delta(s.prev), stackDelta(stack, s.prevStack),
		instr-s.prevInstr, cyc-s.prevCyc, instr, cyc))
	s.prev, s.prevStack, s.prevInstr, s.prevCyc = cur, stack, instr, cyc
}

// WriteCSVHeader writes the column-name line, with optional fixed columns
// (label/workload for multi-cell exports) prepended.
func (t *TimeSeries) WriteCSVHeader(w io.Writer, prefixCols ...string) error {
	cols := append(append([]string{}, prefixCols...), t.Columns...)
	_, err := fmt.Fprintln(w, strings.Join(cols, ","))
	return err
}

// WriteCSVRows writes one CSV line per sample, each prefixed by the given
// fixed values (matching a WriteCSVHeader prefix).
func (t *TimeSeries) WriteCSVRows(w io.Writer, prefix ...string) error {
	var b strings.Builder
	for _, row := range t.Rows {
		b.Reset()
		for _, p := range prefix {
			b.WriteString(p)
			b.WriteByte(',')
		}
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the whole series: header plus rows.
func (t *TimeSeries) WriteCSV(w io.Writer) error {
	if err := t.WriteCSVHeader(w); err != nil {
		return err
	}
	return t.WriteCSVRows(w)
}
