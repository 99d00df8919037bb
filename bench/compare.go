package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// cmdCompare implements the A/B rule for a claimed change: A and B are
// files of result lines (one JSON object per line, as a run prints last)
// from at least ten runs per side, the i-th line of each file from the
// i-th pair of runs, alternating which side ran first. A line may carry
// a "workload" key; lines without one belong to -workload. Per workload
// and end-to-end metric it prints each side's quartiles and a verdict:
//
//   - "better": B won at least 9 of 10 pairs and the medians differ by
//     more than A's interquartile range;
//   - "worse": B's median is worse than A's by more than the metric's bound;
//   - "unresolved": either side's spread exceeds the bound, so no change
//     cannot be told from noise — unless every B run beats every A run;
//   - "same": none of the above.
func cmdCompare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload of the lines that do not name one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-workload name] A.jsonl B.jsonl")
	}
	a, err := readRuns(fs.Arg(0), *wl)
	if err != nil {
		return err
	}
	b, err := readRuns(fs.Arg(1), *wl)
	if err != nil {
		return err
	}
	rows, err := compareRuns(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-18s %4s  %-28s %-28s %s\n", "workload", "metric", "n", "A q1/median/q3", "B q1/median/q3", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-18s %4d  %-28s %-28s %s (B won %d/%d, %+.1f%%)\n",
			r.workload, r.metric, r.n, fmtQuartiles(r.a), fmtQuartiles(r.b), r.verdict, r.wins, r.pairs, 100*r.change)
		if r.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// taggedRun is one result line plus the workload it ran.
type taggedRun struct {
	Workload string `json:"workload"`
	resultLine
}

// readRuns reads a file of JSON result lines, grouped by workload.
func readRuns(path, defaultWorkload string) (map[string][]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]resultLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r taggedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Workload == "" {
			r.Workload = defaultWorkload
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: result line names no workload and -workload is unset", path, n)
		}
		out[r.Workload] = append(out[r.Workload], r.resultLine)
	}
	return out, sc.Err()
}

// minPairs is the fewest runs per side a verdict rests on.
const minPairs = 10

// compareRow is one workload × metric comparison.
type compareRow struct {
	workload, metric string
	n                int
	a, b             []float64
	wins, pairs      int
	change           float64 // (median B − median A) / median A, signed so positive is better
	verdict          string
}

func compareRuns(a, b map[string][]resultLine) ([]compareRow, error) {
	var rows []compareRow
	for _, wl := range sortedKeys(a) {
		ra, rb := a[wl], b[wl]
		if len(ra) < minPairs || len(rb) < minPairs {
			return nil, fmt.Errorf("%s: %d and %d runs; the rule needs at least %d per side", wl, len(ra), len(rb), minPairs)
		}
		for _, d := range endToEnd {
			row := compareRow{workload: wl, metric: d.name, n: min(len(ra), len(rb))}
			for _, r := range ra {
				row.a = append(row.a, r.Metrics[d.name].Value)
			}
			for _, r := range rb {
				row.b = append(row.b, r.Metrics[d.name].Value)
			}
			row.verdict, row.wins, row.pairs, row.change = judge(row.a, row.b, d.better == "higher", boundOf(d.name))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// judge applies the rule to one metric: runs are paired in order (the
// i-th A run with the i-th B run, which ran next to it). bound is the
// share of A's median by which B may be worse.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, wins, pairs int, change float64) {
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	mb := median(b)
	if ma != 0 {
		change = sign * (mb - ma) / math.Abs(ma)
	}
	// Every B run beats every A run: B's worst is better than A's best.
	sa, sb := sorted(a), sorted(b)
	allBetter := sign > 0 && sb[0] > sa[len(sa)-1] || sign < 0 && sb[len(sb)-1] < sa[0]
	switch {
	case 10*wins >= 9*pairs && math.Abs(mb-ma) > q3a-q1a && change > 0:
		return "better", wins, pairs, change
	case change < -bound:
		return "worse", wins, pairs, change
	case max(spread(a), spread(b)) > bound && !allBetter:
		return "unresolved", wins, pairs, change
	}
	return "same", wins, pairs, change
}

func fmtQuartiles(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, m, q3)
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
