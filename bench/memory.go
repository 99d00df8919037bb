package main

import (
	"runtime/metrics"
	"time"
)

// memSample is how often the memory sampler reads the runtime.
const memSample = 10 * time.Millisecond

// memPoint is one reading of the Go runtime's memory classes.
type memPoint struct {
	at   time.Time
	held uint64 // mapped read-write minus released to the OS: what the process keeps resident
	heap uint64 // bytes in heap objects, live or not yet swept
}

// memSampler reads the runtime's memory every memSample on a goroutine
// of its own, until stop.
//
// The end-to-end memory metric is a time-weighted mean of these readings,
// not the kernel's high-water RSS: the simulator allocates in tens of MiB
// at a time (image clones, checkpoints), so where a peak lands depends on
// when the collector happened to run, and the same run at the same seed
// read 346, 390 or 406 MiB of peak RSS on paper-sampled. The mean over a
// round repeats to a few per cent.
type memSampler struct {
	stopc  chan struct{}
	done   chan struct{}
	points []memPoint // written by the sampling goroutine until done closes
}

func startMemSampler() *memSampler {
	s := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *memSampler) run() {
	defer close(s.done)
	ms := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	tick := time.NewTicker(memSample)
	defer tick.Stop()
	for {
		metrics.Read(ms)
		s.points = append(s.points, memPoint{
			at:   time.Now(),
			held: ms[0].Value.Uint64() - ms[1].Value.Uint64(),
			heap: ms[2].Value.Uint64(),
		})
		select {
		case <-s.stopc:
			return
		case <-tick.C:
		}
	}
}

// stop ends sampling and returns the readings, oldest first.
func (s *memSampler) stop() []memPoint {
	close(s.stopc)
	<-s.done
	return s.points
}

// meanHeldMiB returns the time-weighted mean of held memory, in MiB, over
// the readings taken from start to end, and how many readings that was.
// Readings are weighted by the time to the next one, since a busy
// process takes them at uneven intervals. A window too short to hold a
// reading reads as the last reading before it (0 if there is none).
func meanHeldMiB(points []memPoint, start, end time.Time) (mib float64, n int) {
	i := 0
	for i < len(points) && points[i].at.Before(start) {
		i++
	}
	before := points[:i]
	points = points[i:]
	for n < len(points) && !points[n].at.After(end) {
		n++
	}
	if n == 0 {
		if len(before) == 0 {
			return 0, 0
		}
		return float64(before[len(before)-1].held) / (1 << 20), 0
	}
	var sum, span float64
	for i := 1; i < n; i++ {
		dt := points[i].at.Sub(points[i-1].at).Seconds()
		sum += dt * float64(points[i-1].held+points[i].held) / 2
		span += dt
	}
	if span == 0 {
		return float64(points[0].held) / (1 << 20), n
	}
	return sum / span / (1 << 20), n
}

// peakHeapMiB returns the highest heap reading, in MiB.
func peakHeapMiB(points []memPoint) float64 {
	var peak uint64
	for _, p := range points {
		peak = max(peak, p.heap)
	}
	return float64(peak) / (1 << 20)
}
