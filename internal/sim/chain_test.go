package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// chainTestParams is a three-region schedule with warmed gaps on CC_ORK
// at TinyScale.
func chainTestParams() Params {
	return Params{Scale: workloads.TinyScale(), FastForward: 20_000, Warm: true,
		Regions: 3, Warmup: 3_000, Measure: 10_000}
}

// TestRegionStartsShareOneChain: a cohort of every core kind produces
// each region start once per warm geometry, counted in the store's
// checkpoint class, and restores it instead of running the gap itself.
// Each member's Result still equals the live reference, which warms
// every gap in place.
func TestRegionStartsShareOneChain(t *testing.T) {
	spec := mustSpec(t, "CC_ORK")
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16)}
	p := chainTestParams()
	geometries := map[string]bool{}
	for _, cfg := range cfgs {
		geometries[warmKey(cfg)] = true
	}

	artifacts.Purge(artifact.Checkpoint)
	artifacts.ResetStats(artifact.Checkpoint)
	results := runCohortCells(t, spec, cfgs, p)
	produced := artifacts.Stats()[artifact.Checkpoint].Produced
	if want := int64(p.Regions * len(geometries)); produced != want {
		t.Errorf("the cohort produced %d checkpoints, want %d: one per region start and warm geometry", produced, want)
	}
	for i, cfg := range cfgs {
		if rs := results[i].Regions; rs == nil || rs.Simulated != p.Regions {
			t.Fatalf("%s: ran %+v, want %d regions", cfg.Label, rs, p.Regions)
		}
		if live := liveCell(t, spec, cfg, p); !reflect.DeepEqual(results[i], live) {
			t.Errorf("%s: cohort Result differs from live:\ncohort %+v\nlive   %+v", cfg.Label, results[i], live)
		}
	}
}

// TestPrefetchTagsSettleInTheGap: the lines an IMP or SVR cell's own
// prefetcher tagged in a window are used or evicted in the gap after it,
// which moves the tracker counts SVR's accuracy monitor reads, and a
// region start produced without that prefetcher holds none of them. With
// 2k-instruction gaps on SSSP_LJN at QuickScale some outlive the gap, so
// each IMP and SVR member equals the live reference, which warms every
// gap in place, only because it warms each gap itself until its own tags
// are resolved.
func TestPrefetchTagsSettleInTheGap(t *testing.T) {
	spec := mustSpec(t, "SSSP_LJN")
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), SVRConfig(16), SVRConfig(64)}
	p := Params{Scale: QuickParams().Scale, FastForward: 2_000, Warm: true,
		Regions: 4, Warmup: 2_000, Measure: 10_000}
	results := runCohortCells(t, spec, cfgs, p)
	for i, cfg := range cfgs {
		if live := liveCell(t, spec, cfg, p); !reflect.DeepEqual(results[i], live) {
			t.Errorf("%s: cohort Result differs from live: IPC %.4f, live %.4f", cfg.Label, results[i].IPC, live.IPC)
		}
	}
}

// TestMixedWarmGeometryCohort: cohort members whose warm geometries
// differ — two in-order machines that differ only in L2 size, and an
// out-of-order one with a smaller branch predictor — each follow the
// chain of their own geometry, and each Result equals its sim.Run.
func TestMixedWarmGeometryCohort(t *testing.T) {
	spec := mustSpec(t, "CC_ORK")
	smallL2 := MachineConfig(InO)
	smallL2.Label = "InO-L2/2"
	smallL2.Hier.L2Size /= 2
	smallBP := MachineConfig(OoO)
	smallBP.Label = "OoO-BP10"
	smallBP.OoO.BPredTableBits = 10
	cfgs := []Config{MachineConfig(InO), smallL2, smallBP}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	p := chainTestParams()
	results := runCohortCells(t, spec, cfgs, p)
	for i, cfg := range cfgs {
		if want := Run(spec, cfg, p); !reflect.DeepEqual(results[i], want) {
			t.Errorf("%s: cohort Result differs from sim.Run:\ncohort %+v\nrun    %+v", cfg.Label, results[i], want)
		}
	}
}

// TestConcurrentCellsShareOneChain: cells of one workload running at
// once, each a cohort of its own, share every region start — the
// stream-pure ones its frozen image — and each equals its sim.Run. Under
// -race it shows the shared starts stay read-only.
func TestConcurrentCellsShareOneChain(t *testing.T) {
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	artifacts.Purge(artifact.Checkpoint)
	spec := mustSpec(t, "CC_ORK")
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16)}
	p := chainTestParams()
	results := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			results[i], _ = executeOne(CellRequest{Cfg: cfg, Spec: spec, P: p}, nil)
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if want := Run(spec, cfg, p); !reflect.DeepEqual(results[i], want) {
			t.Errorf("%s: concurrent cell differs from sim.Run:\ncell %+v\nrun  %+v", cfg.Label, results[i], want)
		}
	}
}

// TestChainCheckpointBytes: the first region start is charged for every
// page it references and each later one only for what it adds, far
// below its image. With the image evicted the charge still covers every
// page the starts keep alive, and a later start goes when the one before
// it goes.
func TestChainCheckpointBytes(t *testing.T) {
	spec := mustSpec(t, "BFS_KR")
	p := QuickParams()
	p.FastForward, p.Warm, p.Regions = 100_000, true, 3
	cfg := MachineConfig(InO)
	artifacts.Purge(artifact.Checkpoint)
	image := instanceBytes(cachedBuild(spec, p.Scale, nil))
	var mems []*mem.Memory
	var ck *Checkpoint
	var charged int64
	for r := 0; r < p.Regions; r++ {
		ck, _ = cachedStart(spec, cfg, p, r, ck, nil)
		mems = append(mems, ck.mem)
		now := artifacts.Stats()[artifact.Checkpoint].Bytes
		switch got := now - charged; {
		case r == 0 && got < image:
			t.Errorf("the first region start is charged %d bytes, below its %d-byte image", got, image)
		case r > 0 && got > image/4:
			t.Errorf("region %d start is charged %d bytes, want far below its %d-byte image", r, got, image)
		}
		charged = now
	}

	artifacts.Purge(artifact.Image)
	if kept := int64(mem.Distinct(mems...)) * mem.PageSize; charged < kept {
		t.Errorf("with the image evicted the starts are charged %d bytes and keep %d bytes of pages alive", charged, kept)
	}

	// A budget of one byte evicts everything but the most recent entry,
	// the last start, except that it goes with the first.
	defer artifacts.SetLimit(artifacts.Limit())
	artifacts.SetLimit(1)
	warm := warmKey(cfg)
	for r := 1; r < p.Regions; r++ {
		if _, ok := artifacts.Get(checkpointKey(spec.Name, p.Scale, p.FastForward, p.Warmup+p.Measure, r, warm)); ok {
			t.Errorf("region %d start outlived the first region start", r)
		}
	}
}

// TestIMPFollowsRegionImage: IMP's prefetcher reads index values from
// the machine's memory image, which Restore replaces at every region
// start. A cohort member and sim.Run reach their region starts by
// different routes, so they agree only if the prefetcher reads the
// image the machine runs on, on a workload whose index array the
// program writes (BFS's queue).
func TestIMPFollowsRegionImage(t *testing.T) {
	spec := mustSpec(t, "BFS_LJN")
	cfg := MachineConfig(IMP)
	p := Params{Scale: workloads.TinyScale(), FastForward: 2_000, Warm: true,
		Regions: 3, Warmup: 1_000, Measure: 4_000}
	if got, want := soloCell(t, spec, cfg, p), Run(spec, cfg, p); !reflect.DeepEqual(got, want) {
		t.Errorf("cell Result differs from sim.Run:\ncell %+v\nrun  %+v", got, want)
	}
}

// TestChainProductionsReported: a cell that produces its chain reports
// every link as a checkpoint production — one artifact event each, and
// checkpoint wall in its job's status — and banks each production's
// fast-forward once, so its phases do not sum to more than its wall time.
func TestChainProductionsReported(t *testing.T) {
	defer SetRunCacheEnabled(SetRunCacheEnabled(false))
	var mu sync.Mutex
	produced := 0
	var fold StatusFold
	defer Subscribe(func(ev Event) {
		if ev.Job != t.Name() {
			return
		}
		fold.Apply(ev)
		if ev.Kind == EvArtifactProduce && ev.Key.Class == artifact.Checkpoint {
			mu.Lock()
			produced++
			mu.Unlock()
		}
	})()
	artifacts.Purge(artifact.Checkpoint)

	p := chainTestParams()
	Emit(Event{Kind: EvJobSubmit, Job: t.Name(), N: 1})
	defer Emit(Event{Kind: EvJobDone, Job: t.Name()})
	_, out := executeOne(CellRequest{Cfg: SVRConfig(16), Spec: mustSpec(t, "CC_ORK"), P: p},
		&Tracker{Job: t.Name(), Worker: 1})
	if produced != p.Regions {
		t.Errorf("%d checkpoint production events, want %d", produced, p.Regions)
	}
	if st := fold.Status(); st.CkptWall <= 0 || st.Checkpointing != 0 || st.Building != 0 {
		t.Errorf("status: checkpoint wall %v, %d still checkpointing, %d building", st.CkptWall, st.Checkpointing, st.Building)
	}
	if out.Phases[PhaseFastForward] <= 0 {
		t.Errorf("no fast-forward banked: %v", out.Phases)
	}
	if total := out.Phases.Total(); total > out.Wall*21/20 {
		t.Errorf("phases attribute %v of %v wall, want at most 105%%\n%v", total, out.Wall, out.Phases)
	}
}
