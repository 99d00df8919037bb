package sim

import (
	"strings"
	"testing"
)

// sampledParams is the quick window with interval sampling on.
func sampledParams() Params {
	p := QuickParams()
	p.Measure = 100_000
	p.SampleEvery = 20_000
	return p
}

// TestSimulateSampledMatchesUnsampled is the tentpole invariant: interval
// sampling must not perturb the simulated timing. The chunked-stepping
// run must agree with a plain run bit-for-bit on the aggregate result.
func TestSimulateSampledMatchesUnsampled(t *testing.T) {
	plain := sampledParams()
	plain.SampleEvery = 0
	got, err := RunByName("BFS_KR", SVRConfig(16), sampledParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunByName("BFS_KR", SVRConfig(16), plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Series == nil {
		t.Fatal("sampled run has no Series")
	}
	if want.Series != nil {
		t.Fatal("unsampled run has a Series")
	}
	if got.Instrs != want.Instrs || got.Cycles != want.Cycles {
		t.Errorf("sampling perturbed timing: sampled %d instrs / %d cycles, plain %d / %d",
			got.Instrs, got.Cycles, want.Instrs, want.Cycles)
	}
	for _, name := range []string{"l1d.misses", "l2.misses", "dram.lines", "svr.rounds"} {
		if g, w := got.Metrics.Counters[name], want.Metrics.Counters[name]; g != w {
			t.Errorf("sampling perturbed %s: %d vs %d", name, g, w)
		}
	}
}

func TestSimulateSampledSeriesShape(t *testing.T) {
	res, err := RunByName("BFS_KR", SVRConfig(16), sampledParams())
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Series
	if ts.Interval != 20_000 {
		t.Errorf("interval = %d", ts.Interval)
	}
	if want := 5; len(ts.Rows) != want { // 100k measured / 20k interval
		t.Errorf("rows = %d, want %d", len(ts.Rows), want)
	}
	if len(ts.Columns) < 15 {
		t.Errorf("only %d columns: %v", len(ts.Columns), ts.Columns)
	}
	col := map[string]int{}
	for i, c := range ts.Columns {
		col[c] = i
	}
	for _, c := range []string{"instrs", "cycles", "ipc", "l1d_mpki", "dram_busy",
		"svr_rounds", "svr_coverage", "cpi_mem_dram", "demand_p50", "demand_p99"} {
		if _, ok := col[c]; !ok {
			t.Fatalf("column %q missing: %v", c, ts.Columns)
		}
	}
	var prevInstr, prevCyc float64
	for i, row := range ts.Rows {
		if len(row) != len(ts.Columns) {
			t.Fatalf("row %d has %d values for %d columns", i, len(row), len(ts.Columns))
		}
		if row[col["instrs"]] <= prevInstr || row[col["cycles"]] <= prevCyc {
			t.Errorf("row %d positions not increasing: instrs %v cycles %v",
				i, row[col["instrs"]], row[col["cycles"]])
		}
		prevInstr, prevCyc = row[col["instrs"]], row[col["cycles"]]
		if ipc := row[col["ipc"]]; ipc <= 0 || ipc > 8 {
			t.Errorf("row %d ipc = %v", i, ipc)
		}
		if cov := row[col["svr_coverage"]]; cov < 0 || cov > 1 {
			t.Errorf("row %d coverage = %v outside [0,1]", i, cov)
		}
	}
	// A memory-bound graph workload must show DRAM pressure somewhere.
	var anyDRAM bool
	for _, row := range ts.Rows {
		if row[col["dram_busy"]] > 0 {
			anyDRAM = true
		}
	}
	if !anyDRAM {
		t.Error("dram_busy is zero in every interval of BFS_KR")
	}
	if ts.Rows[len(ts.Rows)-1][col["instrs"]] != float64(res.Instrs) {
		t.Errorf("last row instrs %v != result instrs %d",
			ts.Rows[len(ts.Rows)-1][col["instrs"]], res.Instrs)
	}
	// Each interval counts from where the previous one ended, the first
	// from the warmup reset: the intervals' counts add up to the window's.
	for c, name := range map[string]string{"svr_rounds": "svr.rounds", "svr_svis": "svr.svis"} {
		var sum float64
		for _, row := range ts.Rows {
			sum += row[col[c]]
		}
		if want := res.Metrics.Counters[name]; want == 0 || sum != float64(want) {
			t.Errorf("%s sums to %v over the intervals, window counted %d", c, sum, want)
		}
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := &TimeSeries{Interval: 10, Columns: []string{"a", "b"},
		Rows: [][]float64{{1, 2.5}, {3, 4}}}
	var b strings.Builder
	if err := ts.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "a,b\n1,2.5\n3,4\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	b.Reset()
	if err := ts.WriteCSVHeader(&b, "label", "wl"); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteCSVRows(&b, "svr16", "BFS"); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "label,wl,a,b\nsvr16,BFS,1,2.5\nsvr16,BFS,3,4\n"; got != want {
		t.Errorf("prefixed csv = %q, want %q", got, want)
	}
}
