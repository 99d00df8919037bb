// Package stats provides the CPI-stack accounting and aggregate
// math (harmonic means, normalization) used to regenerate the paper's
// tables and figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// StallReason classifies where a cycle went, for CPI stacks (Fig 3).
type StallReason int

// Stall reasons attributed by the core timing models.
const (
	StallBase    StallReason = iota // issue slots doing useful work
	StallMemL2                      // waiting on data that hit in L2
	StallMemDRAM                    // waiting on data from DRAM
	StallBranch                     // branch misprediction bubbles
	StallOther                      // structural hazards, FU latency, etc.
	NumStallReasons
)

var stallNames = [NumStallReasons]string{"base", "mem-l2", "mem-dram", "branch", "other"}

// String returns the reason label used in figure output.
func (r StallReason) String() string {
	if r >= 0 && int(r) < len(stallNames) {
		return stallNames[r]
	}
	return fmt.Sprintf("stall(%d)", int(r))
}

// CPIStack decomposes execution cycles per instruction by stall reason.
type CPIStack struct {
	Cycles [NumStallReasons]float64
	Instrs uint64
}

// Add attributes n cycles to a reason.
func (s *CPIStack) Add(r StallReason, n float64) { s.Cycles[r] += n }

// CPI returns total cycles per instruction.
func (s CPIStack) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	total := 0.0
	for _, c := range s.Cycles {
		total += c
	}
	return total / float64(s.Instrs)
}

// Component returns the per-instruction cycles attributed to one reason.
func (s CPIStack) Component(r StallReason) float64 {
	if s.Instrs == 0 {
		return 0
	}
	return s.Cycles[r] / float64(s.Instrs)
}

// String renders the stack compactly.
func (s CPIStack) String() string {
	parts := make([]string, 0, NumStallReasons)
	for r := StallReason(0); r < NumStallReasons; r++ {
		parts = append(parts, fmt.Sprintf("%s=%.2f", r, s.Component(r)))
	}
	return fmt.Sprintf("CPI %.2f (%s)", s.CPI(), strings.Join(parts, " "))
}

// HarmonicMean returns the harmonic mean of xs; it is the correct
// aggregate for normalized IPC (the paper reports hmean speedups).
// Non-positive entries are ignored.
func HarmonicMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += 1 / x
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// ArithMean returns the arithmetic mean of xs.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95 %
// confidence interval under a normal approximation (1.96·s/√n, sample
// standard deviation). The half-width is 0 for fewer than two samples —
// used for the per-region spread of multi-region sampled runs.
func MeanCI95(xs []float64) (mean, half float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = ArithMean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := ss / float64(len(xs)-1)
	return mean, 1.96 * math.Sqrt(variance/float64(len(xs)))
}

// Table is a simple column-aligned text table for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowF appends a row whose first cell is a label and the rest are
// floats formatted with %.3g unless fmtStr overrides.
func (t *Table) AddRowF(label string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.3f", v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
