package sim

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// The process-wide artifact store unifies what used to be four private
// caches: the workload build cache (PR 3), the shared post-fast-forward
// checkpoints (PR 5), the recorded instruction streams (PR 6), and the
// memoized cell-result cache (PR 1). One content-addressed, byte-budgeted
// LRU means concurrent grid jobs share warm state across tenants and the
// service layer gets hit/miss/evict observability for free.
var artifacts = artifact.New(512 << 20)

// Artifacts exposes the process-wide store to the service layer and the
// status surfaces.
func Artifacts() *artifact.Store { return artifacts }

// imageKey addresses a raw workload build. Builds are pure functions of
// (generator, scale), so name+scale is a content key.
func imageKey(name string, sc workloads.Scale) artifact.Key {
	return artifact.Key{Class: artifact.Image,
		ID: fmt.Sprintf("%s|g%d|e%d|s%d", name, sc.GraphNodes, sc.Elems, sc.Seed)}
}

// checkpointKey addresses the checkpoint at which region r of a sampled
// schedule starts: the image key plus the fast-forward length and — when
// warming — the warm-relevant machine geometry (warmKey). The first
// region's start does not depend on the window; a later one's key also
// carries the window size and r.
func checkpointKey(name string, sc workloads.Scale, ff, window uint64, r int, warm string) artifact.Key {
	id := fmt.Sprintf("%s|g%d|e%d|s%d|ff%d", name, sc.GraphNodes, sc.Elems, sc.Seed, ff)
	if r > 0 {
		id += fmt.Sprintf("|n%d|r%d", window, r)
	}
	return artifact.Key{Class: artifact.Checkpoint, ID: id + "|w" + warm}
}

// streamKey addresses a stream recording: the image key plus the
// window's absolute start instruction (the fast-forward length for a
// first region) and the recorded window size. Never the warm geometry —
// the functional stream is the same whatever the caches look like.
func streamKey(name string, sc workloads.Scale, start, window uint64) artifact.Key {
	return artifact.Key{Class: artifact.Stream,
		ID: fmt.Sprintf("%s|g%d|e%d|s%d|ff%d|n%d", name, sc.GraphNodes, sc.Elems, sc.Seed, start, window)}
}

// resultKey addresses a memoized cell result by the cell's content hash.
func resultKey(cfg Config, workload string, p Params) artifact.Key {
	sum := hashCell(cfg, workload, p)
	return artifact.Key{Class: artifact.Result, ID: fmt.Sprintf("%x", sum[:])}
}

func instanceBytes(inst *workloads.Instance) int64 {
	return int64(inst.Mem.Pages()) * mem.PageSize
}

// resultBytes estimates a Result's retained size for the byte budget:
// the metric snapshot dominates, plus any sampled time series.
func resultBytes(res Result) int64 {
	n := int64(2048)
	n += int64(len(res.Metrics.Counters)+len(res.Metrics.Gauges)) * 64
	n += int64(len(res.Metrics.Histograms)) * 512
	if res.Series != nil {
		n += int64(len(res.Series.Rows)) * int64(len(res.Series.Columns)) * 8
	}
	return n
}

// RunCacheStats returns the cell-result cache counters (hits and misses
// of the artifact store's result class).
func RunCacheStats() (hits, misses int64) {
	st := artifacts.Stats()[artifact.Result]
	return st.Hits, st.Misses
}

// SetRunCacheEnabled toggles cell-result memoization (a cold run
// re-simulates every cell, with no cross-job sharing) and returns the
// previous setting. Disabling also drops the cached cells.
func SetRunCacheEnabled(on bool) bool {
	return artifacts.SetClassEnabled(artifact.Result, on)
}

// ResetRunCache drops every memoized cell and zeroes the counters.
func ResetRunCache() {
	artifacts.Purge(artifact.Result)
	artifacts.ResetStats(artifact.Result)
}
