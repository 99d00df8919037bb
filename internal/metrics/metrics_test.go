package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	if h.Sum() != 125 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 125", h.Sum())
	}
	s := h.Snapshot()
	// Expected buckets: le=0 {0,-5}→2, le=1 {1}→1, le=3 {2,3}→2,
	// le=7 {4,7}→2, le=15 {8}→1, le=127 {100}→1.
	want := []Bucket{{0, 2}, {1, 1}, {3, 2}, {7, 2}, {15, 1}, {127, 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := s.Quantile(1.0); got != 127 {
		t.Errorf("p100 = %d, want 127", got)
	}
}

func TestHistogramQuantileInterpolated(t *testing.T) {
	var h Histogram
	// 100 observations spread evenly over bucket le=127 (values 64..127):
	// interpolation should land p50 near the middle of the bucket.
	for i := 0; i < 100; i++ {
		h.Observe(64 + int64(i)*63/99)
	}
	p50 := h.Quantile(0.50)
	if p50 < 64 || p50 > 127 {
		t.Fatalf("p50 = %.1f, outside the only occupied bucket [64,127]", p50)
	}
	if math.Abs(p50-95.5) > 16 {
		t.Errorf("p50 = %.1f, want near the bucket midpoint 95.5", p50)
	}
	// The snapshot estimate must agree with the live histogram.
	if est := h.Snapshot().QuantileEst(0.50); math.Abs(est-p50) > 1e-9 {
		t.Errorf("QuantileEst = %.3f, Quantile = %.3f", est, p50)
	}
	// p100 stays within the bucket.
	if p100 := h.Quantile(1.0); p100 > 127 {
		t.Errorf("p100 = %.1f > 127", p100)
	}
}

func TestHistogramQuantileOrderingAndEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %f", h.Quantile(0.5))
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Errorf("all-zero histogram p50 = %f", h.Quantile(0.5))
	}
	for _, v := range []int64{3, 70, 70, 70, 500, 9000} {
		h.Observe(v)
	}
	// Quantiles must be monotone in q and bounded by the extreme buckets.
	prev := -1.0
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile(%.2f) = %.1f < quantile at lower q %.1f", q, v, prev)
		}
		prev = v
	}
	if p50 := h.Quantile(0.5); p50 < 64 || p50 > 127 {
		t.Errorf("p50 = %.1f, want inside [64,127] (the three 70s)", p50)
	}
	if p100 := h.Quantile(1.0); p100 < 8192 || p100 > 16383 {
		t.Errorf("p100 = %.1f, want inside the 9000 bucket [8192,16383]", p100)
	}
}

func TestRegistryAdoptAndReset(t *testing.T) {
	r := New()
	var plain int64 = 7
	var uplain uint64 = 9
	var level int64 = 5
	r.Int64("plain", "adopted int64", &plain)
	r.Uint64("uplain", "adopted uint64", &uplain)
	r.GaugeFunc("level", "a level", func() int64 { return level })
	r.GaugeFunc("computed", "computed level", func() int64 { return 11 })
	h := r.NewHistogram("lat", "a latency")
	h.Observe(4)

	hookRan := false
	r.OnReset(func() {
		if plain != 0 {
			t.Errorf("hook saw plain=%d, want 0 (hooks run after zeroing)", plain)
		}
		hookRan = true
	})

	s := r.Snapshot()
	if s.Counters["plain"] != 7 || s.Counters["uplain"] != 9 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["level"] != 5 || s.Gauges["computed"] != 11 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("histograms = %v", s.Histograms)
	}

	r.Reset()
	if !hookRan {
		t.Fatal("OnReset hook did not run")
	}
	if plain != 0 || uplain != 0 || h.Count() != 0 {
		t.Fatalf("reset left counters: plain=%d uplain=%d hist=%d", plain, uplain, h.Count())
	}
	if g := r.Snapshot().Gauges["level"]; g != 5 {
		t.Fatalf("gauge after reset = %d, want 5", g)
	}
	// The earlier snapshot must be unaffected by the reset.
	if s.Counters["plain"] != 7 {
		t.Fatalf("snapshot mutated by reset: %v", s.Counters)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := New()
	var a, b int64
	r.Int64("x", "", &a)
	r.Int64("x", "", &b)
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	var n int64
	r.Int64("n", "", &n)
	h := r.NewHistogram("h", "")
	var g int64
	r.GaugeFunc("g", "", func() int64 { return g })

	n = 10
	h.Observe(2)
	g = 4
	before := r.Snapshot()

	n = 25
	h.Observe(2)
	h.Observe(100)
	g = 6
	after := r.Snapshot()
	d := after.Delta(before)

	if d.Counters["n"] != 15 {
		t.Errorf("delta counter = %d, want 15", d.Counters["n"])
	}
	if d.Gauges["g"] != 6 {
		t.Errorf("delta gauge = %d, want 6 (current level)", d.Gauges["g"])
	}
	dh := d.Histograms["h"]
	if dh.Count != 2 || dh.Sum != 102 {
		t.Errorf("delta hist = %+v, want count=2 sum=102", dh)
	}
	for _, b := range dh.Buckets {
		if b.Le == 3 && b.Count != 1 {
			t.Errorf("delta bucket le=3 count = %d, want 1", b.Count)
		}
	}

	// An idle interval: nothing counted, gauges still at their level.
	idle := r.Snapshot().Delta(after)
	if idle.Counters["n"] != 0 || idle.Histograms["h"].Count != 0 || idle.Gauges["g"] != 6 {
		t.Errorf("idle delta = %+v, want zero counts and gauge 6", idle)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	var n int64 = 42
	r.Int64("l1d.misses", "L1D misses", &n)
	h := r.NewHistogram("lat.demand.mem", "demand latency")
	h.Observe(200)
	h.Observe(300)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["l1d.misses"] != 42 {
		t.Errorf("round-trip counter = %d, want 42", back.Counters["l1d.misses"])
	}
	hb := back.Histograms["lat.demand.mem"]
	if hb.Count != 2 || hb.Sum != 500 {
		t.Errorf("round-trip hist = %+v", hb)
	}
	// Writers must still work on a deserialized snapshot (no order/help).
	var tbl, prom strings.Builder
	back.WriteTable(&tbl)
	back.WritePrometheus(&prom)
	if !strings.Contains(tbl.String(), "l1d.misses") {
		t.Errorf("table output missing metric:\n%s", tbl.String())
	}
	if !strings.Contains(prom.String(), "svrsim_lat_demand_mem_bucket{le=\"255\"} 1") {
		t.Errorf("prometheus output missing cumulative bucket:\n%s", prom.String())
	}
	if !strings.Contains(prom.String(), "svrsim_lat_demand_mem_bucket{le=\"511\"} 2") {
		t.Errorf("prometheus output missing cumulative bucket:\n%s", prom.String())
	}
}

func TestWritePrometheusWellFormed(t *testing.T) {
	r := New()
	var n int64 = 3
	r.Int64("dram.loads.demand", "DRAM line loads from demand misses", &n)
	var out strings.Builder
	r.Snapshot().WritePrometheus(&out)
	want := "# HELP svrsim_dram_loads_demand DRAM line loads from demand misses\n" +
		"# TYPE svrsim_dram_loads_demand counter\n" +
		"svrsim_dram_loads_demand 3\n"
	if out.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestHistogramSnapshotAdd(t *testing.T) {
	a := HistogramSnapshot{Count: 3, Sum: 30, Buckets: []Bucket{{Le: 7, Count: 2}, {Le: 63, Count: 1}}}
	b := HistogramSnapshot{Count: 2, Sum: 40, Buckets: []Bucket{{Le: 7, Count: 1}, {Le: 15, Count: 1}}}
	got := a.Add(b)
	want := HistogramSnapshot{Count: 5, Sum: 70, Buckets: []Bucket{{Le: 7, Count: 3}, {Le: 15, Count: 1}, {Le: 63, Count: 1}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	// Adding an empty histogram is the identity.
	if got := a.Add(HistogramSnapshot{}); !reflect.DeepEqual(got, a) {
		t.Errorf("Add(zero) = %+v, want %+v", got, a)
	}
	if got := (HistogramSnapshot{}).Add(b); !reflect.DeepEqual(got, b) {
		t.Errorf("zero.Add = %+v, want %+v", got, b)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{
		Counters:   map[string]int64{"x": 1, "shared": 2},
		Gauges:     map[string]int64{"g": 10},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 1, Sum: 5, Buckets: []Bucket{{Le: 7, Count: 1}}}},
	}
	b := Snapshot{
		Counters:   map[string]int64{"y": 4, "shared": 3},
		Gauges:     map[string]int64{"g": 20},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 2, Sum: 6, Buckets: []Bucket{{Le: 7, Count: 2}}}},
	}
	m := a.Merge(b)
	if m.Counters["x"] != 1 || m.Counters["y"] != 4 || m.Counters["shared"] != 5 {
		t.Errorf("counters = %+v", m.Counters)
	}
	// Gauges are instantaneous: the later window wins.
	if m.Gauges["g"] != 20 {
		t.Errorf("gauge = %d, want 20", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 11 || len(h.Buckets) != 1 || h.Buckets[0].Count != 3 {
		t.Errorf("histogram = %+v", h)
	}
	// Merging with a zero snapshot returns the other side unchanged.
	if got := (Snapshot{}).Merge(a); !reflect.DeepEqual(got, a) {
		t.Errorf("zero.Merge = %+v", got)
	}
	if got := a.Merge(Snapshot{}); !reflect.DeepEqual(got, a) {
		t.Errorf("Merge(zero) = %+v", got)
	}
}
