package sim

import (
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/graphs"
	"repro/internal/workloads"
)

// liveHeap returns the live heap after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestGraphClassBounded: a served job may vary the seed freely, and each
// new seed is a new graph. Graphs are charged in the store beside the
// images built from them, so over many seeds the store evicts old ones:
// its bytes stay within the limit, and the live heap does not grow past
// the limit plus one image's worth (an image retains no CSR of its own).
func TestGraphClassBounded(t *testing.T) {
	spec := mustSpec(t, "PR_ORK")
	scale := func(seed int64) workloads.Scale {
		return workloads.Scale{GraphNodes: 1 << 14, Elems: 1 << 10, Seed: 5000 + seed}
	}
	defer artifacts.SetLimit(artifacts.Limit())
	artifacts.Purge(artifact.Graph)
	artifacts.Purge(artifact.Image)

	base := liveHeap()
	first := cachedBuild(spec, scale(0), nil)
	one := liveHeap() - base // one image and its graph, as the heap holds them
	charge := instanceBytes(first) + graphs.Build(graphs.ORK, 1<<14, 5000).Bytes()
	first = nil
	limit := 3 * charge
	artifacts.SetLimit(limit)
	evicted := artifacts.Stats()[artifact.Graph].Evictions

	const seeds = 12
	for s := int64(1); s < seeds; s++ {
		cachedBuild(spec, scale(s), nil)
		if b := artifacts.Bytes(); b > artifacts.Limit() {
			t.Fatalf("seed %d: store holds %d bytes over its %d-byte limit", s, b, artifacts.Limit())
		}
		if grew := liveHeap() - base; grew > limit+one {
			t.Fatalf("seed %d: live heap grew %d bytes, past the %d-byte limit plus one image's %d",
				s, grew, limit, one)
		}
	}
	if n := artifacts.Stats()[artifact.Graph].Evictions - evicted; n == 0 {
		t.Errorf("%d seeds under a %d-byte limit evicted no graph", seeds, limit)
	}
}
