package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// around returns n values alternating ±jitter around center.
func around(center, jitter float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center + jitter*float64(1-2*(i%2))*float64(i%3)/2
	}
	return xs
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"clear gain", around(100, 1, 10), around(110, 1, 10), true, "better"},
		{"clear gain, lower is better", around(100, 1, 10), around(90, 1, 10), false, "better"},
		{"no change", around(100, 1, 10), around(100, 1, 10), true, "same"},
		{"regression past the bound", around(100, 1, 10), around(70, 1, 10), true, "worse"},
		{"regression inside the bound", around(100, 1, 10), around(95, 1, 10), true, "same"},
		{"noisy parent", []float64{60, 140, 70, 130, 80, 120, 65, 135, 75, 125},
			around(100, 1, 10), true, "unresolved"},
		{"noisy but every B run better", []float64{60, 70, 65, 62, 68, 61, 69, 63, 66, 64},
			[]float64{200, 400, 250, 350, 220, 380, 260, 330, 240, 300}, true, "better"},
		{"small gain within the parent's spread", []float64{95, 105, 96, 104, 97, 103, 98, 102, 99, 101},
			[]float64{97, 107, 98, 106, 99, 105, 100, 104, 101, 103}, true, "same"},
	}
	for _, c := range cases {
		got, wins, pairs, _ := judge(c.a, c.b, c.higherBetter, 0.25)
		if got != c.want {
			t.Errorf("%s: verdict %q (won %d/%d), want %q", c.name, got, wins, pairs, c.want)
		}
	}
}

func TestCompareReadsTaggedAndUntaggedLines(t *testing.T) {
	dir := t.TempDir()
	line := func(wl string, rate float64) string {
		tag := ""
		if wl != "" {
			tag = `"workload":"` + wl + `",`
		}
		return `{` + tag + `"correct":true,"attempted":1,"failed":0,"metrics":{"sim_minstr_per_s":{"value":` +
			strconv.FormatFloat(rate, 'g', -1, 64) + `,"unit":"Minstr/s"}}}`
	}
	var a, b []string
	for i := 0; i < minPairs; i++ {
		a = append(a, line("", 10+float64(i%2)*0.1))
		b = append(b, line("quick-grid", 12+float64(i%2)*0.1))
	}
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(pa, []byte(strings.Join(a, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, []byte(strings.Join(b, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ra, err := readRuns(pa, "quick-grid")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readRuns(pb, "")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := compareRuns(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	if rows[0].metric != "sim_minstr_per_s" || rows[0].verdict != "better" {
		t.Errorf("first row %s: %s, want sim_minstr_per_s: better", rows[0].metric, rows[0].verdict)
	}
	if _, err := readRuns(pa, ""); err == nil {
		t.Error("untagged lines without -workload were accepted")
	}
	if _, err := compareRuns(ra, map[string][]resultLine{"quick-grid": rb["quick-grid"][:minPairs-1]}); err == nil {
		t.Error("fewer than ten pairs were accepted")
	}
}
