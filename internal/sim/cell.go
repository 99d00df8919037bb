package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/workloads"
)

// This file is the cell-execution core of the scheduler: one grid cell
// (config × workload × window) resolved through the unified artifact
// store. Every caller — the serial matrix runner, the grid service's
// workers, a test — goes through ExecuteCohort (a lone cell is a cohort
// of one), so single-shot and served modes cannot drift: there is
// exactly one code path from a cell request to a Result, and exactly one
// set of caches behind it.

// cellKey identifies one simulation by content: the machine configuration
// (minus its display label), the workload name, and the window.
type cellKey [sha256.Size]byte

// hashCell derives the cache key. Config and Params are plain-data
// structs, so their canonical JSON encoding is a stable content hash; the
// label is display-only and must not split otherwise-identical cells
// (sweeps relabel the default configuration all the time).
func hashCell(cfg Config, workload string, p Params) cellKey {
	cfg.Label = ""
	blob, err := json.Marshal(struct {
		Cfg      Config
		Workload string
		P        Params
	}{cfg, workload, p})
	if err != nil {
		panic(fmt.Sprintf("sim: cannot hash cell: %v", err))
	}
	return sha256.Sum256(blob)
}

// CellRequest names one schedulable cell.
type CellRequest struct {
	Cfg  Config
	Spec workloads.Spec
	P    Params
}

// CellOutcome describes how a cell request was satisfied.
type CellOutcome struct {
	// Cached: the result was resident in the artifact store.
	Cached bool
	// Shared: the result was joined from another caller's in-flight
	// execution of the identical cell (cross-job dedup).
	Shared bool
	// Replayed: this cell was timed from a recorded instruction stream,
	// as every simulated cell is.
	Replayed bool
	// CkptFromStore / StreamFromStore: the cell consumed a checkpoint /
	// recording it did not produce itself — warm state shared with an
	// earlier or concurrent job.
	CkptFromStore   bool
	StreamFromStore bool
	// Wall is the caller's wall time on the cell, however it was served.
	Wall time.Duration
	// Phases decomposes Wall by phase: build, fast-forward, record,
	// decode, timing, store-wait. Shared productions (checkpoints,
	// recordings) are attributed to the cell that produced them; cohort
	// members carry an even split of their cohort's shared cost.
	Phases PhaseTimes
}

// FromStore reports whether the cell's result came out of the unified
// store rather than a simulation run by this caller.
func (o CellOutcome) FromStore() bool { return o.Cached || o.Shared }

// cachedBuild returns the memoized image for (spec, sc), building it at
// most once across concurrent callers. Copy-on-write Clone makes
// retention safe: cells clone the image and never write the master, so a
// stored entry stays pristine.
func cachedBuild(spec workloads.Spec, sc workloads.Scale, rep *reporter) *workloads.Instance {
	k := imageKey(spec.Name, sc)
	t0 := time.Now()
	v, oc := artifacts.GetOrProduce(k, func() (any, int64) {
		inst := spec.Build(sc)
		return inst, instanceBytes(inst)
	})
	rep.artifact(k, oc, time.Since(t0))
	return v.(*workloads.Instance)
}

// cloneInstance copies the memory image so a run (which mutates memory
// through stores) cannot contaminate the shared master build.
func cloneInstance(master *workloads.Instance) *workloads.Instance {
	return &workloads.Instance{
		Name: master.Name, Prog: master.Prog,
		Mem: master.Mem.Clone(), Check: master.Check,
	}
}

// warmKey hashes the configuration state functional warming actually
// depends on: cache/TLB/prefetcher geometry and branch-predictor table
// size. Latencies, MSHR count, walker count and the DRAM model never
// touch warmed tags, so sweeps over them (MSHR/bandwidth sensitivity)
// share one warmed checkpoint per workload.
func warmKey(cfg Config) string {
	hier := cfg.Hier
	hier.L1Latency, hier.L2Latency, hier.STLBLatency, hier.WalkLatency = 0, 0, 0, 0
	hier.L1MSHRs, hier.NumPTWs = 0, 0
	hier.DRAM = dram.Config{}
	bits := cfg.InO.BPredTableBits
	if cfg.Core == OoO {
		bits = cfg.OoO.BPredTableBits
	}
	blob, err := json.Marshal(struct {
		Hier      cache.Config
		BPredBits uint
	}{hier, bits})
	if err != nil {
		panic(fmt.Sprintf("sim: cannot hash warm geometry: %v", err))
	}
	sum := sha256.Sum256(blob)
	return fmt.Sprintf("%x", sum[:8])
}

// cachedStart returns the shared checkpoint at which region r of p's
// schedule starts for cfg's warm geometry, producing it at most once
// across concurrent callers. The starts form a chain of live-points:
// region 0 starts at the workload image fast-forwarded p.FastForward
// instructions; region r starts at prev, region r-1's start, restored on
// a throwaway machine and fast-forwarded through its warmup+measure
// window and the next gap (both warmed when the gaps are). The first
// start is charged for every page it references, so it covers the
// image's pages once the image is evicted; a later one is charged for
// what it adds to prev and tied to it in the store, so it never outlives
// the charge for the rest. The producer banks the fast-forward, a caller
// that joined its flight the wait. The outcome reports whether this
// caller got the checkpoint from the store (hit or joined flight) rather
// than producing it.
func cachedStart(spec workloads.Spec, cfg Config, p Params, r int, prev *Checkpoint, rep *reporter) (*Checkpoint, artifact.Outcome) {
	warm := ""
	if p.warmGaps() {
		warm = warmKey(cfg)
	}
	window := p.Warmup + p.Measure
	k := checkpointKey(spec.Name, p.Scale, p.FastForward, window, r, warm)
	callStart := time.Now()
	v, oc := artifacts.GetOrProduce(k, func() (any, int64) {
		n := window + p.FastForward
		if r == 0 {
			prev, n = imageStart(cachedBuild(spec, p.Scale, rep)), p.FastForward
		}
		rep.enter(PhaseFastForward)
		t0 := time.Now()
		ck := advance(cfg, prev, n, warm != "")
		rep.add(PhaseFastForward, time.Since(t0))
		if r == 0 {
			return ck, ck.Bytes()
		}
		return ck, ck.addedBytes()
	})
	if r > 0 && !oc.FromStore() {
		artifacts.Tie(k, checkpointKey(spec.Name, p.Scale, p.FastForward, window, r-1, warm), prev)
	}
	if oc.Waited {
		rep.add(PhaseStoreWait, time.Since(callStart))
	}
	rep.artifact(k, oc, time.Since(callStart))
	return v.(*Checkpoint), oc
}
