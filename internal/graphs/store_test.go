package graphs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
)

// TestBuildProducesOnce: concurrent callers of a graph no one built yet
// get one CSR, built once, and the store charges it its two arrays.
func TestBuildProducesOnce(t *testing.T) {
	store := artifact.Shared()
	store.Purge(artifact.Graph)
	before := store.Stats()[artifact.Graph]
	const callers = 8
	got := make([]*CSR, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Build(LJN, 1<<12, 9001)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("caller %d got a different CSR", i)
		}
	}
	after := store.Stats()[artifact.Graph]
	if n := after.Produced - before.Produced; n != 1 {
		t.Errorf("produced %d graphs for one key, want 1", n)
	}
	if d := after.Bytes - before.Bytes; d != got[0].Bytes() {
		t.Errorf("charged %d bytes, want %d", d, got[0].Bytes())
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
		big := key(KR, 1<<17, seed)
		began := store.Stats()[artifact.Graph].Misses
		done := make(chan struct{})
		go func() {
			defer close(done)
			Build(KR, 1<<17, seed)
		}()
		for store.Stats()[artifact.Graph].Misses == began {
			time.Sleep(100 * time.Microsecond) // until the large build claims its key
		}
		Build(UR, 1<<8, seed)
		_, resident := store.Get(big)
		<-done
		if !resident {
			return
		}
	}
	t.Error("a small graph's build returned only after the large one in flight finished, three times")
}
