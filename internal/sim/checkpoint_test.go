package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/workloads"
)

// TestCheckpointRoundTripBitIdentical: interrupting a run at the
// fast-forward boundary — capture a checkpoint, restore it into a fresh
// machine — must reproduce the uninterrupted run's Result bit for bit,
// including the full metrics snapshot. This is the property the shared
// checkpoint cache rests on.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	for _, regions := range []int{1, 3} {
		p := QuickParams()
		p.FastForward = 200_000
		p.Warm = true
		p.Regions = regions
		cfg := SVRConfig(16)
		spec := mustSpec(t, "BFS_KR")
		master := spec.Build(p.Scale)

		m1, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		want := Simulate(m1, p)

		prod, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		if !prod.FastForward(p.FastForward, p.Warm) {
			t.Fatal("fast-forward hit program end")
		}
		ck := prod.Checkpoint()
		m2, err := NewMachineFrom(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		got := simulate(m2, p, true)

		if !reflect.DeepEqual(want, got) {
			t.Errorf("regions=%d: restored run differs from uninterrupted run:\nwant %+v\ngot  %+v",
				regions, want, got)
		}
	}
}

// TestCheckpointSiblingsIndependent: one checkpoint fans out to many
// cells. Sibling machines restored from the same checkpoint share frozen
// COW pages; mutating memory in one must not leak into another, so all
// siblings — run concurrently, under -race — must match a serial
// reference exactly.
func TestCheckpointSiblingsIndependent(t *testing.T) {
	p := QuickParams()
	p.FastForward = 150_000
	p.Warm = true
	cfg := MachineConfig(InO)
	spec := mustSpec(t, "Randacc")
	master := spec.Build(p.Scale)

	prod, err := NewMachine(cfg, cloneInstance(master))
	if err != nil {
		t.Fatal(err)
	}
	if !prod.FastForward(p.FastForward, p.Warm) {
		t.Fatal("fast-forward hit program end")
	}
	ck := prod.Checkpoint()

	refM, err := NewMachineFrom(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	ref := simulate(refM, p, true)

	const siblings = 3
	var wg sync.WaitGroup
	results := make([]Result, siblings)
	errs := make([]error, siblings)
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := NewMachineFrom(cfg, ck)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = simulate(m, p, true)
		}(i)
	}
	wg.Wait()
	for i := 0; i < siblings; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(ref, results[i]) {
			t.Errorf("sibling %d diverged from serial reference", i)
		}
	}
}

// TestSchedulerCheckpointDeterminism: the grid scheduler's shared-
// checkpoint path (one fast-forward per workload, cloned into every
// cell) must produce the same Results as direct uncached runs that
// fast-forward in place.
func TestSchedulerCheckpointDeterminism(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	p := QuickParams()
	p.FastForward = p.Warmup + 100_000
	p.Warm = true
	p.Warmup = 0

	specs := []workloads.Spec{mustSpec(t, "BFS_KR"), mustSpec(t, "Randacc")}
	cfgs := []Config{MachineConfig(InO), SVRConfig(16)}
	rs := runMatrix(cfgs, specs, p)

	for _, cfg := range cfgs {
		for _, spec := range specs {
			got, ok := rs.Get(cfg.Label, spec.Name)
			if !ok {
				t.Fatalf("missing cell %s/%s", cfg.Label, spec.Name)
			}
			fresh := Run(spec, cfg, p)
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s/%s: scheduler cell differs from direct run", cfg.Label, spec.Name)
			}
		}
	}
}

// TestFunctionalWarmingFidelity: after N instructions, a functionally
// warmed hierarchy must hold exactly the state the detailed timing model
// leaves, because warming runs the timed paths' own fill code on every
// miss: every cache way's tag, LRU stamp, dirty, touched and prefetch
// bits, the LRU clocks, TLB slots and stamps, stride entries,
// outstanding prefetch tags and the last fetched instruction line, plus
// the branch-predictor tables and the DRAM line and write-back counts.
// Occupancy (MSHRs, walkers, the DRAM channel) and the other counters
// are out of scope: warming has no timing, and the counters reset at
// the measure boundary anyway.
func TestFunctionalWarmingFidelity(t *testing.T) {
	const n = 60_000
	dramCounters := []string{"dram.loads.inst", "dram.writebacks"}
	for o := cache.Origin(0); o < cache.NumOrigins; o++ {
		dramCounters = append(dramCounters, "dram.loads."+o.String())
	}
	for _, kind := range []CoreKind{InO, OoO} {
		cfg := MachineConfig(kind)
		for _, wl := range []string{"BFS_KR", "Randacc", "HJ8", "NAS-IS", "PR_UR"} {
			master := mustSpec(t, wl).Build(QuickParams().Scale)
			det, err := NewMachine(cfg, cloneInstance(master))
			if err != nil {
				t.Fatal(err)
			}
			det.Step(n)
			warm, err := NewMachine(cfg, cloneInstance(master))
			if err != nil {
				t.Fatal(err)
			}
			warm.FastForward(n, true)

			name := cfg.Label + "/" + wl
			db, wb := det.base(), warm.base()
			if !reflect.DeepEqual(db.h.WarmState(), wb.h.WarmState()) {
				t.Errorf("%s: warmed hierarchy state diverges from the detailed run's", name)
			}
			dc, wc := db.h.Reg.Snapshot().Counters, wb.h.Reg.Snapshot().Counters
			for _, c := range dramCounters {
				if d, ok := dc[c]; !ok || wc[c] != d {
					t.Errorf("%s: %s = %d detailed, %d warmed", name, c, d, wc[c])
				}
			}
			if !db.bp.StateEqual(wb.bp) {
				t.Errorf("%s: branch-predictor tables diverge", name)
			}
		}
	}
}
