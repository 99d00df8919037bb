package workloads

import (
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/graphs"
	"repro/internal/mem"
)

// TestBuildProducesOnce: concurrent callers of a graph no one built yet
// get one graph, built once, and the store charges it its pages.
func TestBuildProducesOnce(t *testing.T) {
	store := artifact.Shared()
	store.Purge(artifact.Graph)
	before := store.Stats()[artifact.Graph]
	const callers = 8
	got := make([]graphImage, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cachedGraph(graphs.LJN, 1<<12, 9001)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g.m != got[0].m {
			t.Fatalf("caller %d got a different graph", i)
		}
	}
	after := store.Stats()[artifact.Graph]
	if n := after.Produced - before.Produced; n != 1 {
		t.Errorf("produced %d graphs for one key, want 1", n)
	}
	if d, want := after.Bytes-before.Bytes, int64(got[0].m.Pages())*mem.PageSize; d != want {
		t.Errorf("charged %d bytes, want %d", d, want)
	}
}

// TestBuildDifferentKeysOverlap: a small graph builds while a large one
// is still in flight, so no lock is held across a build. A build that
// waited for the other would find the large graph resident when it
// returns; each attempt starts with no graph resident, and one overlap
// is enough.
func TestBuildDifferentKeysOverlap(t *testing.T) {
	store := artifact.Shared()
	for attempt := int64(0); attempt < 3; attempt++ {
		store.Purge(artifact.Graph)
		seed := 7000 + attempt
		big := graphKey(graphs.KR, 1<<17, seed)
		began := store.Stats()[artifact.Graph].Misses
		done := make(chan struct{})
		go func() {
			defer close(done)
			cachedGraph(graphs.KR, 1<<17, seed)
		}()
		for store.Stats()[artifact.Graph].Misses == began {
			time.Sleep(100 * time.Microsecond) // until the large build claims its key
		}
		cachedGraph(graphs.UR, 1<<8, seed)
		_, resident := store.Get(big)
		<-done
		if !resident {
			return
		}
	}
	t.Error("a small graph's build returned only after the large one in flight finished, three times")
}

// TestGAPImagesShareGraph: three GAP images of one input, built at once
// from three goroutines, hold the graph's pages once between them and
// the stored graph. Each image shares every CSR page with the graph but
// the last, which the kernel's first array may begin on and write, so
// no page of the stored graph is held twice; the pages beyond the
// graph's are each image's own; and every image still matches its
// pinned digest.
func TestGAPImagesShareGraph(t *testing.T) {
	quick := Scale{GraphNodes: 1 << 16, Elems: 1 << 18, Seed: 42}
	artifact.Shared().Purge(artifact.Graph)
	names := []string{"BFS_KR", "PR_KR", "CC_KR"}
	insts := make([]*Instance, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			insts[i] = spec.Build(quick)
		}()
	}
	wg.Wait()

	g := cachedGraph(graphs.KR, quick.GraphNodes, quick.Seed).m
	graphPages := mem.Distinct(g)
	all := []*mem.Memory{g}
	own := graphPages
	for i, inst := range insts {
		x := inst.Mem
		all = append(all, x)
		if shared := graphPages + x.Pages() - mem.Distinct(g, x); shared < graphPages-1 {
			t.Errorf("%s shares %d of the graph's %d pages, want at least %d",
				names[i], shared, graphPages, graphPages-1)
		}
		own += mem.Distinct(g, x) - graphPages
		if got := imageDigest(inst); got != quickDigests[names[i]] {
			t.Errorf("%s: digest %s, want %s", names[i], got, quickDigests[names[i]])
		}
	}
	if got := mem.Distinct(all...); got != own {
		t.Errorf("graph and images hold %d distinct pages, want the graph's %d plus each image's own, %d",
			got, graphPages, own)
	}
}
