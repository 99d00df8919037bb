package sim

import (
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/emu"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// This file is the functional front end of the one execution path: each
// workload window is executed once into a compact recording
// (cachedRecording, under the same store/singleflight machinery as the
// shared checkpoints), and every cell that reaches the window — in any
// cohort, any job — times that recording.

// streamStats aggregates recording-pass production counters for the
// bench and status surfaces.
var streamStats = struct {
	sync.Mutex
	recordings int
	bytes      int64
	instrs     uint64
}{}

// StreamCacheStats describes the recording passes produced so far.
type StreamCacheStats struct {
	Recordings int    // recording passes actually executed (cache misses)
	Bytes      int64  // total encoded stream bytes produced
	Instrs     uint64 // total instructions recorded
}

// BytesPerInstr returns the mean encoded record size across recordings.
func (s StreamCacheStats) BytesPerInstr() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Instrs)
}

// RecordingStats returns the process-wide recording production counters.
func RecordingStats() StreamCacheStats {
	streamStats.Lock()
	defer streamStats.Unlock()
	return StreamCacheStats{
		Recordings: streamStats.recordings,
		Bytes:      streamStats.bytes,
		Instrs:     streamStats.instrs,
	}
}

// cachedRecording returns the shared recording of the warmup+measure
// window starting at src's emulator position, producing it at most once
// across concurrent callers via the artifact store. Windows are keyed by
// their absolute start instruction, so every region of a multi-region
// schedule is recorded once for all cells that reach it, and a
// single-window cell's key is its fast-forward length. The pass is
// purely functional and leaves src where it was (recordFrom). The
// outcome reports whether this caller got the buffer from the store
// (hit or joined flight) rather than recording it.
func cachedRecording(spec workloads.Spec, p Params, src *machineBase, rep *reporter) (*stream.Recording, artifact.Outcome) {
	n := p.Warmup + p.Measure
	k := streamKey(spec.Name, p.Scale, src.cpu.InstrCount(), n)
	callStart := time.Now()
	v, oc := artifacts.GetOrProduce(k, func() (any, int64) {
		rep.enter(PhaseRecord)
		t0 := time.Now()
		rec := recordFrom(src, n)
		rep.add(PhaseRecord, time.Since(t0))

		streamStats.Lock()
		streamStats.recordings++
		streamStats.bytes += int64(rec.Bytes())
		streamStats.instrs += rec.N
		streamStats.Unlock()
		return rec, int64(rec.Bytes())
	})
	if oc.Waited {
		rep.add(PhaseStoreWait, time.Since(callStart))
	}
	rep.artifact(k, oc, time.Since(callStart))
	return v.(*stream.Recording), oc
}

// recordFrom records the next n instructions from b's emulator position
// on a private front-end emulator, leaving b's architectural state and
// memory image as they were. A machine that owns its image lends it to
// the front end, which rolls its stores back (stream.RecordAhead); one
// sharing a frozen image, which nothing may write, records on a
// copy-on-write clone.
func recordFrom(b *machineBase, n uint64) *stream.Recording {
	var rec *stream.Recording
	var err error
	if b.owns {
		fe := emu.New(b.cpu.Prog, b.cpu.Mem)
		fe.LoadArch(b.cpu.SaveArch())
		rec, err = stream.RecordAhead(fe, n)
	} else {
		fe := emu.New(b.cpu.Prog, b.cpu.Mem.Clone())
		fe.LoadArch(b.cpu.SaveArch())
		rec, err = stream.Record(fe, n)
	}
	if err != nil {
		panic(err) // the emulator broke the stream contract: a bug, not an input error
	}
	return rec
}
