package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(data, n=...)
	// (method="exclusive"), which an acceptance check of the benchmark
	// uses for its spreads.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"ten q1", ten, 0.25, 2.75},
		{"ten median", ten, 0.5, 5.5},
		{"ten q3", ten, 0.75, 8.25},
		{"ten p10", ten, 0.1, 1.1},
		{"ten p90", ten, 0.9, 9.9},
		{"two q1 extrapolates", []float64{1, 2}, 0.25, 0.75},
		{"two q3 extrapolates", []float64{2, 1}, 0.75, 2.25},
		{"three unsorted", []float64{3, 1, 2}, 0.25, 1},
		{"seven q3", []float64{5, 1, 4, 2, 3, 10, 7}, 0.75, 7},
		{"one", []float64{4}, 0.9, 4},
		{"empty", nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: quantile(%v, %g) = %g, want %g", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs           []float64
		q1, med, q3  float64
		spreadWanted float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 10, 10, 10}, 10, 10, 10, 0},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 1},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g/%g/%g, want %g/%g/%g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got := spread(c.xs); math.Abs(got-c.spreadWanted) > 1e-9 {
			t.Errorf("spread(%v) = %g, want %g", c.xs, got, c.spreadWanted)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd sample = %g, want 2", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{0.5, 8, 2}, 2},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestMeanHeldMiB(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int, mib uint64) memPoint {
		return memPoint{at: t0.Add(time.Duration(ms) * time.Millisecond), held: mib << 20}
	}
	// 100 MiB for 30 ms, a ramp to 200 over 10 ms, 200 for 60 ms: the
	// readings are uneven, so an unweighted mean would read 150.
	points := []memPoint{at(0, 100), at(30, 100), at(40, 200), at(100, 200), at(200, 900)}
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	cases := []struct {
		start, end int // ms
		want       float64
		wantN      int
	}{
		{0, 100, (30*100 + 10*150 + 60*200) / 100.0, 4},
		{0, 35, 100, 2},
		{-5, -1, 0, 0},
		{0, 200, (30*100 + 10*150 + 60*200 + 100*550) / 200.0, 5},
		{35, 200, (60*200 + 100*550) / 160.0, 3},
		{150, 160, 200, 0}, // no reading inside: the one before stands for it
	}
	for _, c := range cases {
		got, n := meanHeldMiB(points, ms(c.start), ms(c.end))
		if math.Abs(got-c.want) > 1e-9 || n != c.wantN {
			t.Errorf("meanHeldMiB(%d..%d ms) = %g over %d readings, want %g over %d", c.start, c.end, got, n, c.want, c.wantN)
		}
	}
	if got, _ := meanHeldMiB(points[:1], ms(0), ms(0)); got != 100 {
		t.Errorf("one reading: %g, want 100", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.90, false}, // 9.9 samples beyond
		{100, 0.90, true},
		{20, 0.50, true},
		{19, 0.50, false},
		{1000, 0.99, true},
		{999, 0.99, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := tailPercentile(xs, c.q); ok != c.ok {
			t.Errorf("tailPercentile(n=%d, q=%g) ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
	}
}
