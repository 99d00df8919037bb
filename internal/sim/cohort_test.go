package sim

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// cohortTestConfigs returns distinct sibling configs spanning every
// stream class — stream-pure (InO, OoO), memory-view (IMP), and
// arch-view (SVR) — so a cohort has real claims to produce and every
// per-member view kind is exercised in one lockstep walk. The first two
// stay stream-pure for the chunk fuzzer. Identical configs would
// collapse to one content key.
func cohortTestConfigs() []Config {
	a := MachineConfig(InO)
	b := MachineConfig(OoO)
	c := MachineConfig(InO)
	c.Label = "InO-slowL2"
	c.Hier.L2Latency += 4
	d := MachineConfig(OoO)
	d.Label = "OoO-slowL2"
	d.Hier.L2Latency += 4
	e := MachineConfig(IMP)
	f := SVRConfig(16)
	g := SVRConfig(64)
	return []Config{a, b, c, d, e, f, g}
}

// executeOne resolves one cell through ExecuteCohort, as a cohort of one.
func executeOne(req CellRequest, tr *Tracker) (Result, CellOutcome) {
	results, outs := ExecuteCohort([]CellRequest{req}, tr)
	return results[0], outs[0]
}

// soloCell runs one cell as a cohort of one, result memoization off so
// it really simulates.
func soloCell(t *testing.T, spec workloads.Spec, cfg Config, p Params) Result {
	t.Helper()
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	res, out := executeOne(CellRequest{Cfg: cfg, Spec: spec, P: p}, nil)
	if out.Cached || out.Shared {
		t.Fatalf("%s: solo cell served from the store", cfg.Label)
	}
	return res
}

// runCohortCells executes the full config set as one cohort (result
// memoization off, so every member is a claim and the lockstep walk
// really runs) and returns the per-config results.
func runCohortCells(t *testing.T, spec workloads.Spec, cfgs []Config, p Params) []Result {
	t.Helper()
	prevCache := SetRunCacheEnabled(false)
	defer SetRunCacheEnabled(prevCache)
	reqs := make([]CellRequest, len(cfgs))
	for i, cfg := range cfgs {
		reqs[i] = CellRequest{Cfg: cfg, Spec: spec, P: p}
	}
	results, outs := ExecuteCohort(reqs, nil)
	for i, out := range outs {
		if !out.Replayed {
			t.Errorf("cohort member %s not marked Replayed", cfgs[i].Label)
		}
		if out.Cached || out.Shared {
			t.Errorf("cohort member %s marked Cached/Shared on a cold run", cfgs[i].Label)
		}
	}
	return results
}

// TestCohortMatchesSolo is the fidelity contract of lockstep cohorts:
// for every core kind — stream-pure, IMP's and SVR's views —
// plain, checkpointed, and as a sampled multi-region schedule, a cell
// stepped in lockstep over shared decoded batches must produce a Result
// deeply equal to the same cell run as a cohort of one, and to the cell
// running its emulator live.
func TestCohortMatchesSolo(t *testing.T) {
	spec, err := workloads.Get("CC_ORK")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := cohortTestConfigs()
	for _, c := range []replayCase{
		{"plain", replayTestParams()},
		{"checkpointed", Params{Scale: workloads.TinyScale(), FastForward: 20_000, Warm: true, Measure: 60_000}},
		{"sampled-regions", Params{Scale: workloads.TinyScale(), FastForward: 20_000, Warm: true,
			Regions: 3, Warmup: 3_000, Measure: 10_000, SampleEvery: 4_000}},
	} {
		t.Run(c.name, func(t *testing.T) {
			results := runCohortCells(t, spec, cfgs, c.p)
			for i, cfg := range cfgs {
				if solo := soloCell(t, spec, cfg, c.p); !reflect.DeepEqual(results[i], solo) {
					t.Errorf("%s: cohort Result differs from a cohort of one:\ncohort %+v\nsolo   %+v",
						cfg.Label, results[i], solo)
				}
				if live := liveCell(t, spec, cfg, c.p); !reflect.DeepEqual(results[i], live) {
					t.Errorf("%s: cohort Result differs from live:\ncohort %+v\nlive   %+v",
						cfg.Label, results[i], live)
				}
			}
		})
	}
}

// TestWideCohortMatchesSolo pins the widened cohorts this layer exists
// for: a single cohort of four SVR geometry variants (each with its own
// replay-backed ArchState view over the one shared decode) must plan as
// one width-4 group and produce bit-identical Results to cohorts of one.
// Run under -race it also proves the per-member views never share
// mutable state.
func TestWideCohortMatchesSolo(t *testing.T) {
	spec, err := workloads.Get("PR_KR")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{SVRConfig(8), SVRConfig(16), SVRConfig(32), SVRConfig(64)}
	p := replayTestParams()

	reqs := make([]CellRequest, len(cfgs))
	for i, cfg := range cfgs {
		reqs[i] = CellRequest{Cfg: cfg, Spec: spec, P: p}
	}
	groups := PlanCohorts(reqs, nil)
	if len(groups) != 1 || len(groups[0]) != len(cfgs) {
		t.Fatalf("PlanCohorts = %v, want one width-%d group", groups, len(cfgs))
	}

	results := runCohortCells(t, spec, cfgs, p)
	for i, cfg := range cfgs {
		solo := soloCell(t, spec, cfg, p)
		if !reflect.DeepEqual(results[i], solo) {
			t.Errorf("%s: wide cohort Result differs from a cohort of one:\ncohort %+v\nsolo   %+v",
				cfg.Label, results[i], solo)
		}
	}
}

// TestPlanCohorts pins the grouping rules: adjacent siblings merge up
// to MaxCohortWidth, and differing windows never share a cohort.
func TestPlanCohorts(t *testing.T) {
	spec, err := workloads.Get("PR_KR")
	if err != nil {
		t.Fatal(err)
	}
	p := replayTestParams()
	ino, ooo, svr := MachineConfig(InO), MachineConfig(OoO), SVRConfig(16)
	p2 := p
	p2.Measure += 1
	pSamp := p
	pSamp.SampleEvery = 100

	cells := []CellRequest{
		{Cfg: ino, Spec: spec, P: p},     // 0 ┐
		{Cfg: ooo, Spec: spec, P: p},     // 1 │ cohort (SVR joins via ArchView)
		{Cfg: svr, Spec: spec, P: p},     // 2 ┘
		{Cfg: svr, Spec: spec, P: pSamp}, // 3 alone (sampled window)
		{Cfg: ino, Spec: spec, P: p},     // 4 ┐ cohort
		{Cfg: ooo, Spec: spec, P: p},     // 5 ┘
		{Cfg: ino, Spec: spec, P: p2},    // 6 alone (different window)
	}
	got := PlanCohorts(cells, nil)
	want := [][]int{{0, 1, 2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCohorts = %v, want %v", got, want)
	}

	// Width cap: a long run of siblings splits at MaxCohortWidth.
	var wide []CellRequest
	for i := 0; i < MaxCohortWidth+3; i++ {
		wide = append(wide, CellRequest{Cfg: ino, Spec: spec, P: p})
	}
	groups := PlanCohorts(wide, nil)
	if len(groups) != 2 || len(groups[0]) != MaxCohortWidth || len(groups[1]) != 3 {
		t.Errorf("width cap grouping = %v groups (sizes %d)", len(groups), len(groups[0]))
	}

	// An explicit index subset groups only within the subset, in order.
	got = PlanCohorts(cells, []int{1, 4, 6})
	want = [][]int{{1, 4}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCohorts(subset) = %v, want %v", got, want)
	}
}

// FuzzCohortChunks drives the lockstep walk across arbitrary chunk
// sizes, warmup boundaries and sample intervals — chunks straddling the
// warmup → measure reset and interval boundaries, tiny chunks, chunks
// bigger than the window — and requires Results, time series included,
// deeply equal to the live reference every time.
func FuzzCohortChunks(f *testing.F) {
	spec, err := workloads.Get("Randacc")
	if err != nil {
		f.Fatal(err)
	}
	cfgs := cohortTestConfigs()[:2]
	f.Add(uint16(1000), uint16(3000), uint16(512), uint16(0))
	f.Add(uint16(0), uint16(5000), uint16(1), uint16(700))      // no warmup, single-row chunks
	f.Add(uint16(4096), uint16(4096), uint16(3), uint16(1000))  // boundaries not chunk multiples
	f.Add(uint16(7), uint16(60000), uint16(4096), uint16(7000)) // window inside one chunk
	f.Fuzz(func(t *testing.T, warmup, measure, chunk, sample uint16) {
		if measure == 0 {
			measure = 1
		}
		p := Params{
			Scale:       workloads.TinyScale(),
			Warmup:      uint64(warmup),
			Measure:     uint64(measure),
			SampleEvery: uint64(sample),
		}
		prevChunk := cohortChunkRows
		cohortChunkRows = int(chunk%4096) + 1
		defer func() { cohortChunkRows = prevChunk }()

		results := runCohortCells(t, spec, cfgs, p)
		for i, cfg := range cfgs {
			if live := liveCell(t, spec, cfg, p); !reflect.DeepEqual(results[i], live) {
				t.Errorf("%s (warmup=%d measure=%d chunk=%d sample=%d): cohort differs from live",
					cfg.Label, warmup, measure, cohortChunkRows, sample)
			}
		}
	})
}
