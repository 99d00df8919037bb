package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCPIStack(t *testing.T) {
	var s CPIStack
	s.Instrs = 100
	s.Add(StallBase, 50)
	s.Add(StallMemDRAM, 150)
	if got := s.CPI(); got != 2.0 {
		t.Errorf("CPI = %v, want 2.0", got)
	}
	if got := s.Component(StallMemDRAM); got != 1.5 {
		t.Errorf("dram component = %v", got)
	}
	if !strings.Contains(s.String(), "mem-dram=1.50") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestCPIStackEmpty(t *testing.T) {
	var s CPIStack
	if s.CPI() != 0 || s.Component(StallBase) != 0 {
		t.Error("empty stack should report 0")
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("hmean(1,1,1) = %v", got)
	}
	if got := HarmonicMean([]float64{2, 2}); got != 2 {
		t.Errorf("hmean(2,2) = %v", got)
	}
	// hmean(1, 3) = 2/(1 + 1/3) = 1.5
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("hmean(1,3) = %v, want 1.5", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("hmean(nil) = %v", got)
	}
	// Ignores non-positive entries.
	if got := HarmonicMean([]float64{0, -1, 2}); got != 2 {
		t.Errorf("hmean with zeros = %v", got)
	}
}

func TestHarmonicLEArithmetic(t *testing.T) {
	// AM-HM inequality on positive inputs.
	if err := quick.Check(func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= ArithMean(xs)+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("workload", "CPI")
	tb.AddRowF("bfs", 12.5)
	tb.AddRow("pr", "3.2")
	out := tb.String()
	if !strings.Contains(out, "workload") || !strings.Contains(out, "12.500") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestStallReasonNames(t *testing.T) {
	for r := StallReason(0); r < NumStallReasons; r++ {
		if s := r.String(); s == "" || strings.HasPrefix(s, "stall(") {
			t.Errorf("reason %d unnamed", r)
		}
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("speedup", "x")
	c.Add("in-order", 1.0)
	c.Add("SVR16", 3.2)
	out := c.String()
	if !strings.Contains(out, "SVR16") || !strings.Contains(out, "3.200x") {
		t.Errorf("chart output:\n%s", out)
	}
	// The max bar must be full width, the 1.0 bar proportionally shorter.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("chart has %d lines", len(lines))
	}
	if strings.Count(lines[2], "█") != 40 {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	want := int(1.0/3.2*40 + 0.5)
	if got := strings.Count(lines[1], "█"); got != want {
		t.Errorf("proportional bar = %d blocks, want %d", got, want)
	}
}

func TestBarChartEmpty(t *testing.T) {
	if out := NewBarChart("x", "").String(); out != "" {
		t.Errorf("empty chart rendered %q", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("workload", "CPI")
	tb.AddRow("a,b", `say "hi"`)
	tb.AddRowF("pr", 1.5)
	csv := tb.CSV()
	if !strings.Contains(csv, "workload,CPI\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, `"a,b","say ""hi"""`) {
		t.Errorf("csv quoting: %q", csv)
	}
	if !strings.Contains(csv, "pr,1.500") {
		t.Errorf("csv row: %q", csv)
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Errorf("mean = %v, want 3", mean)
	}
	// sample variance 2.5, se = sqrt(2.5/5), half = 1.96*se ≈ 1.3859
	if want := 1.96 * math.Sqrt(2.5/5); math.Abs(half-want) > 1e-12 {
		t.Errorf("half-width = %v, want %v", half, want)
	}
	if mean, half := MeanCI95([]float64{7}); mean != 7 || half != 0 {
		t.Errorf("single sample: mean=%v half=%v, want 7, 0", mean, half)
	}
	if mean, half := MeanCI95(nil); mean != 0 || half != 0 {
		t.Errorf("empty: mean=%v half=%v, want 0, 0", mean, half)
	}
	// Identical samples: zero spread.
	if _, half := MeanCI95([]float64{2, 2, 2}); half != 0 {
		t.Errorf("constant samples: half=%v, want 0", half)
	}
}
