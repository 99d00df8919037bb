package sim

import (
	"strings"
	"testing"

	"repro/internal/svr"
	"repro/internal/workloads"
)

// TestValidateAcceptsExperimentConfigs: the default machines and the
// extremes the sensitivity sweeps use all pass validation.
func TestValidateAcceptsExperimentConfigs(t *testing.T) {
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO)}
	for _, n := range []int{8, 16, 32, 64, 128} {
		cfgs = append(cfgs, SVRConfig(n))
	}
	sweep := SVRConfig(64)
	sweep.Hier.L1MSHRs, sweep.Hier.NumPTWs = 1, 6
	sweep.Hier.DRAM.BandwidthGBps = 12.5
	sweep.SVR.ScalarsPerSlot, sweep.SVR.SRFRegs, sweep.SVR.RegCopyCycles = 8, 2, 16
	sweep.SVR.LoopBound, sweep.SVR.Recycle = svr.LBDCV, svr.RecycleNone
	cfgs = append(cfgs, sweep)
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label, err)
		}
	}
}

// TestValidateRejects: each field a constructor divides or indexes by,
// or sizes a table from, is refused out of range, naming the field.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		field string
		kind  CoreKind
		edit  func(*Config)
	}{
		{"Hier.L1", InO, func(c *Config) { c.Hier.L1Ways = 0 }},
		{"Hier.L1Size", InO, func(c *Config) { c.Hier.L1Size = 0 }},
		{"Hier.L2", InO, func(c *Config) { c.Hier.L2Size = 3 << 10 }}, // 6 sets
		{"Hier.L2Size", InO, func(c *Config) { c.Hier.L2Size = 1 << 30 }},
		{"Hier.L1MSHRs", InO, func(c *Config) { c.Hier.L1MSHRs = 0 }},
		{"Hier.STLB", InO, func(c *Config) { c.Hier.STLBWays = 3 }},
		{"Hier.NumPTWs", InO, func(c *Config) { c.Hier.NumPTWs = 0 }},
		{"Hier.DRAM.BandwidthGBps", InO, func(c *Config) { c.Hier.DRAM.BandwidthGBps = 0 }},
		{"InO.Width", InO, func(c *Config) { c.InO.Width = 0 }},
		{"InO.MemPorts", SVR, func(c *Config) { c.InO.MemPorts = 0 }},
		{"OoO.ROB", OoO, func(c *Config) { c.OoO.ROB = 0 }},
		{"IMP.IPTEntries", IMP, func(c *Config) { c.IMP.IPTEntries = 0 }},
		{"IMP.MaxShift", IMP, func(c *Config) { c.IMP.MaxShift = 255 }},
		{"SVR.VectorLen", SVR, func(c *Config) { c.SVR.VectorLen = 1 << 30 }},
		{"SVR.LoopBound", SVR, func(c *Config) { c.SVR.LoopBound = 99 }},
		{"Core", InO, func(c *Config) { c.Core = 42 }},
	} {
		cfg := MachineConfig(tc.kind)
		tc.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tc.field, err)
		}
	}
	// The zero config names the hierarchy and the core fields together.
	if err := (Config{Label: "x"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "Hier.L1") || !strings.Contains(err.Error(), "InO.Width") {
		t.Errorf("zero config: Validate() = %v", err)
	}
}

// TestParamsValidate: every preset window, and the smallest image sizes
// Validate accepts, pass; each out-of-range field is refused by name.
func TestParamsValidate(t *testing.T) {
	paper2 := PaperParams()
	paper2.Regions = 2
	smallest := Params{Scale: workloads.Scale{GraphNodes: minScaleSize, Elems: minScaleSize}, Measure: 1}
	for _, p := range []Params{QuickParams(), DefaultParams(), PaperParams(), paper2, smallest,
		{Scale: workloads.TinyScale(), Warmup: 1_000, Measure: 3_000, SampleEvery: 100}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	for _, tc := range []struct {
		field string
		edit  func(*Params)
	}{
		{"Scale.GraphNodes", func(p *Params) { p.Scale.GraphNodes = -5 }},
		{"Scale.GraphNodes", func(p *Params) { p.Scale.GraphNodes = 0 }},
		{"Scale.GraphNodes", func(p *Params) { p.Scale.GraphNodes = 1 << 30 }},
		{"Scale.Elems", func(p *Params) { p.Scale.Elems = -5 }},
		{"Scale.Elems", func(p *Params) { p.Scale.Elems = 1 << 40 }},
		{"Regions", func(p *Params) { p.Regions = -1 }},
		{"Regions", func(p *Params) { p.Regions = 1 << 20 }},
		{"Warmup", func(p *Params) { p.Warmup = 1 << 62 }},
		{"Measure", func(p *Params) { p.Measure = 1 << 62 }},
		{"FastForward", func(p *Params) { p.FastForward = 1 << 62 }},
		{"SampleEvery", func(p *Params) { p.SampleEvery = 1 }},
	} {
		p := QuickParams()
		tc.edit(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tc.field, err)
		}
	}
}

// TestSmallestScaleRuns: at the smallest image sizes Params.Validate
// accepts, every workload builds and runs a short window.
func TestSmallestScaleRuns(t *testing.T) {
	p := Params{Scale: workloads.Scale{GraphNodes: minScaleSize, Elems: minScaleSize, Seed: 1}, Warmup: 100, Measure: 1_000}
	for _, name := range workloads.Names() {
		if _, err := RunByName(name, MachineConfig(InO), p); err != nil {
			t.Fatal(err)
		}
	}
}
