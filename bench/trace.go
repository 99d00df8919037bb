package main

import (
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/grid"
	"repro/internal/sim"
)

// tracer is a traced run's instrumentation, all of it attached from the
// benchmark's side of the program's public hooks: the scheduler's
// progress hook and lifecycle journal, a wrapper around the scheduler's
// group executor, and client-side timing of each job's submission and
// wait. Every method is a no-op on a nil tracer, so untraced runs
// install nothing.
type tracer struct {
	on atomic.Bool

	// What the simulated cells report, summed as each round settles.
	counters map[string]float64
	instrs   float64              // measured instructions
	stepped  map[stepCost]float64 // instructions the timing phase stepped, by what stepping one costs
	regionFF float64              // fast-forward between a cell's sampled regions

	mu        sync.Mutex
	phases    sim.PhaseTimes // simulated cells' wall time by phase
	cellWall  time.Duration  // simulated cells' summed wall
	cellMS    []float64      // each simulated cell's wall
	replayed  int            // simulated cells fed by a recorded stream
	groupWall time.Duration  // summed wall of every executed group
	cohorts   int            // groups of two or more cells
	cohortN   int            // cells in those groups
	submitMS  []float64      // job submission round trips
	waitMS    []float64      // job waits (scheduler) or result streams (HTTP)

	journal *grid.Journal
	at      procCounters // when the round in progress started
	sum     procCounters // summed over the rounds
	maxRSS  int64        // the kernel's high-water RSS at the end of the timed region, KiB
}

// procCounters are the process-wide counters a traced run reports the
// rounds' share of.
type procCounters struct {
	art     artifact.Stats // Hits, Misses, Waited and Evictions per class
	rec     sim.StreamCacheStats
	mallocs uint64
	cpu     [2]float64 // runtime/metrics GC and total CPU seconds
}

func readProcCounters() procCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procCounters{art: sim.Artifacts().Stats(), rec: sim.RecordingStats(),
		mallocs: s[0].Value.Uint64(), cpu: [2]float64{s[1].Value.Float64(), s[2].Value.Float64()}}
}

// addSince adds to p what the counters in now gained since was.
func (p *procCounters) addSince(was, now procCounters) {
	if p.art == nil {
		p.art = artifact.Stats{}
	}
	for c, s1 := range now.art {
		s0, acc := was.art[c], p.art[c]
		acc.Hits += s1.Hits - s0.Hits
		acc.Misses += s1.Misses - s0.Misses
		acc.Waited += s1.Waited - s0.Waited
		acc.Evictions += s1.Evictions - s0.Evictions
		p.art[c] = acc
	}
	p.rec.Recordings += now.rec.Recordings - was.rec.Recordings
	p.rec.Bytes += now.rec.Bytes - was.rec.Bytes
	p.rec.Instrs += now.rec.Instrs - was.rec.Instrs
	p.mallocs += now.mallocs - was.mallocs
	for i := range p.cpu {
		p.cpu[i] += now.cpu[i] - was.cpu[i]
	}
}

func newTracer() *tracer {
	return &tracer{
		counters: map[string]float64{},
		stepped:  map[stepCost]float64{},
		journal:  grid.NewJournal(grid.JournalConfig{Capture: -1}),
	}
}

// stepCost is what stepping one instruction of a cell costs, in terms of
// the probes: the core kind (with its companion engine), plus the
// emulator when the cell ran live alongside it.
type stepCost struct {
	core sim.CoreKind
	live bool
}

// cell adds one simulated cell's counters, instructions and the work its
// timing phase did to the totals, before the cell is settled.
func (t *tracer) cell(c *cellRecord) {
	if t == nil || c.fromStore {
		return
	}
	for k, v := range c.res.Metrics.Counters {
		t.counters[k] += float64(v)
	}
	t.instrs += float64(c.res.Instrs)
	regions := 1
	if c.res.Regions != nil {
		regions = max(1, c.res.Regions.Simulated)
	}
	t.regionFF += float64(regions-1) * float64(c.p.FastForward)
	// Multi-region windows run live: the emulator steps every instruction
	// alongside the core.
	k := stepCost{core: c.cfg.Core, live: c.p.Regions > 1}
	t.stepped[k] += float64(c.res.Instrs) + float64(regions)*float64(c.p.Warmup)
}

// start installs the hooks and snapshots the counters at the start of a
// round. Between rounds (stop to start) nothing is traced, so the work
// that resets a round does not count.
func (t *tracer) start() {
	if t == nil {
		return
	}
	grid.SetJournal(t.journal)
	sim.SetProgressHook(t.progress)
	t.at = readProcCounters()
	t.on.Store(true)
}

// stop removes the hooks and adds the round's share of the counters.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
	sim.SetProgressHook(nil)
	grid.SetJournal(nil)
	t.sum.addSince(t.at, readProcCounters())
	t.maxRSS = rusage().Maxrss
}

// progress is the scheduler's per-cell progress hook.
func (t *tracer) progress(ev sim.CellEvent) {
	if ev.Cached || ev.Shared {
		return
	}
	t.mu.Lock()
	t.phases.AddAll(ev.Phases)
	t.cellWall += ev.Wall
	t.cellMS = append(t.cellMS, float64(ev.Wall.Nanoseconds())/1e6)
	if ev.Replayed {
		t.replayed++
	}
	t.mu.Unlock()
}

// executeGroup wraps the scheduler's group executor to time each group.
func (t *tracer) executeGroup(reqs []sim.CellRequest, tr *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
	t0 := time.Now()
	res, outs := sim.ExecuteCohort(reqs, tr)
	if t.on.Load() {
		d := time.Since(t0)
		t.mu.Lock()
		t.groupWall += d
		if len(reqs) > 1 {
			t.cohorts++
			t.cohortN += len(reqs)
		}
		t.mu.Unlock()
	}
	return res, outs
}

// jobTimes records one job's submission round trip and its wait for
// the last result.
func (t *tracer) jobTimes(submit, wait time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.submitMS = append(t.submitMS, float64(submit.Nanoseconds())/1e6)
	t.waitMS = append(t.waitMS, float64(wait.Nanoseconds())/1e6)
	t.mu.Unlock()
}

// perLayer are the metrics a traced run reports, grouped by the layer
// (module) they describe. Directions say which way is better for the
// simulator; counts are per thousand simulated instructions so runs that
// got through different amounts of work compare.
var perLayer = []metricDef{
	{name: "workloads.build_ms", unit: "ms", better: "lower"},
	{name: "emu.ff_ns_per_instr", unit: "ns", better: "lower"},
	{name: "emu.ff_minstr", unit: "Minstr", better: "higher"},
	{name: "stream.record_ns_per_instr", unit: "ns", better: "lower"},
	{name: "stream.decode_ns_per_instr", unit: "ns", better: "lower"},
	{name: "stream.fill_ns_per_row", unit: "ns", better: "lower"},
	{name: "stream.archview_ns_per_row", unit: "ns", better: "lower"},
	{name: "stream.bytes_per_instr", unit: "B", better: "lower"},
	{name: "stream.recordings", unit: "count", better: "lower"},
	{name: "inorder.ns_per_instr", unit: "ns", better: "lower"},
	{name: "ooo.ns_per_instr", unit: "ns", better: "lower"},
	{name: "core.minstr", unit: "Minstr", better: "higher"},
	{name: "cache.access_ns", unit: "ns", better: "lower"},
	{name: "cache.fetch_ns", unit: "ns", better: "lower"},
	{name: "cache.prefetch_ns", unit: "ns", better: "lower"},
	{name: "tlb.lookup_ns", unit: "ns", better: "lower"},
	{name: "l1d.accesses_pki", unit: "1/kinstr", better: "lower"},
	{name: "l1d.miss_ratio", unit: "frac", better: "lower"},
	{name: "l2.misses_pki", unit: "1/kinstr", better: "lower"},
	{name: "dtlb.misses_pki", unit: "1/kinstr", better: "lower"},
	{name: "ptw.walks_pki", unit: "1/kinstr", better: "lower"},
	{name: "pf.stride.issued_pki", unit: "1/kinstr", better: "lower"},
	{name: "dram.access_ns", unit: "ns", better: "lower"},
	{name: "dram.lines_pki", unit: "1/kinstr", better: "lower"},
	{name: "dram.queued_cycles_pki", unit: "cycles/kinstr", better: "lower"},
	{name: "svr.ns_per_instr", unit: "ns", better: "lower"},
	{name: "svr.rounds_pki", unit: "1/kinstr", better: "lower"},
	{name: "svr.scalars_pki", unit: "1/kinstr", better: "lower"},
	{name: "pf.svr.issued_pki", unit: "1/kinstr", better: "lower"},
	{name: "svr.accuracy", unit: "frac", better: "higher"},
	{name: "imp.ns_per_instr", unit: "ns", better: "lower"},
	{name: "pf.imp.issued_pki", unit: "1/kinstr", better: "lower"},
	{name: "imp.accuracy", unit: "frac", better: "higher"},
	{name: "phase.build_frac", unit: "frac", better: "lower"},
	{name: "phase.fast_forward_frac", unit: "frac", better: "lower"},
	{name: "phase.record_frac", unit: "frac", better: "lower"},
	{name: "phase.decode_frac", unit: "frac", better: "lower"},
	{name: "phase.timing_frac", unit: "frac", better: "higher"},
	{name: "phase.store_wait_frac", unit: "frac", better: "lower"},
	{name: "phase.coverage", unit: "frac", better: "higher"},
	{name: "layers.coverage", unit: "frac", better: "higher"},
	{name: "sim.cell_wall_s", unit: "s", better: "lower"},
	{name: "sim.cell_p50_ms", unit: "ms", better: "lower"},
	{name: "sim.cell_p90_ms", unit: "ms", better: "lower"},
	{name: "sim.group_s", unit: "s", better: "lower"},
	{name: "sim.cohorts", unit: "count", better: "higher"},
	{name: "sim.cohort_width", unit: "cells", better: "higher"},
	{name: "sim.replayed_frac", unit: "frac", better: "higher"},
	{name: "artifact.image.hits", unit: "count", better: "higher"},
	{name: "artifact.image.misses", unit: "count", better: "lower"},
	{name: "artifact.image.evictions", unit: "count", better: "lower"},
	{name: "artifact.checkpoint.hits", unit: "count", better: "higher"},
	{name: "artifact.checkpoint.misses", unit: "count", better: "lower"},
	{name: "artifact.checkpoint.evictions", unit: "count", better: "lower"},
	{name: "artifact.stream.hits", unit: "count", better: "higher"},
	{name: "artifact.stream.misses", unit: "count", better: "lower"},
	{name: "artifact.stream.evictions", unit: "count", better: "lower"},
	{name: "artifact.result.hits", unit: "count", better: "higher"},
	{name: "artifact.result.misses", unit: "count", better: "lower"},
	{name: "artifact.result.evictions", unit: "count", better: "lower"},
	{name: "artifact.result.hit_ratio", unit: "frac", better: "higher"},
	{name: "artifact.joins", unit: "count", better: "lower"},
	{name: "grid.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "grid.queue_wait_p90_ms", unit: "ms", better: "lower"},
	{name: "grid.idle_frac", unit: "frac", better: "lower"},
	{name: "grid.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "grid.stream_p50_ms", unit: "ms", better: "lower"},
	{name: "jobs.completed", unit: "count", better: "higher"},
	{name: "jobs.hit_frac", unit: "frac", better: "higher"},
	{name: "jobs.p50_ms", unit: "ms", better: "lower"},
	{name: "jobs.p90_ms", unit: "ms", better: "lower"},
	{name: "jobs.hit_p50_ms", unit: "ms", better: "lower"},
	{name: "jobs.miss_p50_ms", unit: "ms", better: "lower"},
	{name: "jobs.miss_p90_ms", unit: "ms", better: "lower"},
	{name: "go.allocs_per_instr", unit: "count", better: "lower"},
	{name: "go.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "go.heap_peak_mib", unit: "MiB", better: "lower"},
	{name: "proc.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "model.svr16_speedup", unit: "x", better: "higher"},
	{name: "model.svr16_err_vs_paper_pct", unit: "%", better: "lower"},
}

// report fills m with the per-layer metrics of the traced timed region
// (wall long) and runs the layer probes. trace.overhead_frac is the
// parent's: it compares this run with an untraced one.
func (t *tracer) report(b *bench, wall time.Duration, rep *childReport) error {
	m := rep.Metrics
	probes, err := runProbes(b.sized(sim.QuickParams()))
	if err != nil {
		return err
	}
	for k, v := range probes {
		m[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Counts the cells themselves report, per thousand simulated
	// instructions, and the layer-cost estimate: the instructions the
	// timing phase stepped and the fast-forward it ran, each at its
	// probe's cost.
	sum, instrs := t.counters, t.instrs
	estNS := t.regionFF * m["emu.ff_ns_per_instr"]
	for k, n := range t.stepped {
		perInstr := m["inorder.ns_per_instr"]
		switch k.core {
		case sim.OoO:
			perInstr = m["ooo.ns_per_instr"]
		case sim.IMP:
			perInstr += m["imp.ns_per_instr"]
		case sim.SVR:
			perInstr += m["svr.ns_per_instr"]
		}
		if k.live {
			perInstr += m["stream.record_ns_per_instr"]
		}
		estNS += n * perInstr
	}
	ffInstrs := t.regionFF + t.checkpointFF()
	pki := func(name string) float64 { return ratio(1000*sum[name], instrs) }
	m["emu.ff_minstr"] = ffInstrs / 1e6
	m["core.minstr"] = instrs / 1e6
	m["l1d.accesses_pki"] = pki("l1d.accesses")
	m["l1d.miss_ratio"] = ratio(sum["l1d.misses"], sum["l1d.accesses"])
	m["l2.misses_pki"] = pki("l2.misses")
	m["dtlb.misses_pki"] = pki("dtlb.misses")
	m["ptw.walks_pki"] = pki("ptw.walks")
	m["pf.stride.issued_pki"] = pki("pf.stride.issued")
	m["dram.lines_pki"] = pki("dram.lines")
	m["dram.queued_cycles_pki"] = pki("dram.queued_cycles")
	m["svr.rounds_pki"] = pki("svr.rounds")
	m["svr.scalars_pki"] = pki("svr.scalars")
	m["pf.svr.issued_pki"] = pki("pf.svr.issued")
	m["svr.accuracy"] = ratio(sum["pf.svr.used"], sum["pf.svr.issued"])
	m["pf.imp.issued_pki"] = pki("pf.imp.issued")
	m["imp.accuracy"] = ratio(sum["pf.imp.used"], sum["pf.imp.issued"])
	m["go.allocs_per_instr"] = ratio(float64(t.sum.mallocs), instrs)

	// Phase attribution of the simulated cells.
	total := t.phases.Total().Seconds()
	for _, ph := range sim.AllPhases() {
		m["phase."+strings.ReplaceAll(ph.String(), "-", "_")+"_frac"] = ratio(t.phases[ph].Seconds(), total)
	}
	m["phase.coverage"] = ratio(total, t.cellWall.Seconds())
	m["layers.coverage"] = ratio(estNS/1e9, t.phases[sim.PhaseTiming].Seconds())
	m["sim.cell_wall_s"] = t.cellWall.Seconds()
	rep.timing("sim.cell_p50_ms", t.cellMS, 0.5)
	rep.timing("sim.cell_p90_ms", t.cellMS, 0.9)
	m["sim.group_s"] = t.groupWall.Seconds()
	m["sim.cohorts"] = float64(t.cohorts)
	m["sim.cohort_width"] = ratio(float64(t.cohortN), float64(t.cohorts))
	m["sim.replayed_frac"] = ratio(float64(t.replayed), float64(len(t.cellMS)))

	// The artifact store over the rounds.
	var joins int64
	for _, c := range []artifact.Class{artifact.Image, artifact.Checkpoint, artifact.Stream, artifact.Result} {
		s := t.sum.art[c]
		m["artifact."+string(c)+".hits"] = float64(s.Hits)
		m["artifact."+string(c)+".misses"] = float64(s.Misses)
		m["artifact."+string(c)+".evictions"] = float64(s.Evictions)
	}
	for _, s := range t.sum.art {
		joins += s.Waited
	}
	m["artifact.result.hit_ratio"] = ratio(m["artifact.result.hits"], m["artifact.result.hits"]+m["artifact.result.misses"])
	m["artifact.joins"] = float64(joins)
	m["stream.recordings"] = float64(t.sum.rec.Recordings)
	m["stream.bytes_per_instr"] = ratio(float64(t.sum.rec.Bytes), float64(t.sum.rec.Instrs))

	// The scheduler: queue waits from the journal, idle worker time.
	var waits []float64
	for _, ev := range t.journal.Events() {
		if ev.Ev == grid.EvCellStart {
			waits = append(waits, float64(ev.DurNS)/1e6)
		}
	}
	rep.timing("grid.queue_wait_p50_ms", waits, 0.5)
	rep.timing("grid.queue_wait_p90_ms", waits, 0.9)
	m["grid.idle_frac"] = 1 - ratio(t.groupWall.Seconds(), workers*wall.Seconds())
	rep.timing("grid.submit_p50_ms", t.submitMS, 0.5)
	rep.timing("grid.stream_p50_ms", t.waitMS, 0.5)

	m["go.gc_cpu_frac"] = ratio(t.sum.cpu[0], t.sum.cpu[1])
	m["go.heap_peak_mib"] = peakHeapMiB(b.mem)
	// Linux reports the high-water RSS in KiB.
	m["proc.peak_rss_mib"] = float64(t.maxRSS) / 1024

	// Jobs as the clients saw them, split into hits (every cell served
	// from the store) and misses.
	var all, hit, miss []float64
	for _, r := range b.records {
		ms := float64(r.lat.Nanoseconds()) / 1e6
		all = append(all, ms)
		if r.err == nil && r.out.hit {
			hit = append(hit, ms)
		} else {
			miss = append(miss, ms)
		}
	}
	m["jobs.completed"] = float64(len(all))
	m["jobs.hit_frac"] = ratio(float64(len(hit)), float64(len(all)))
	rep.timing("jobs.p50_ms", all, 0.5)
	rep.timing("jobs.p90_ms", all, 0.9)
	rep.timing("jobs.hit_p50_ms", hit, 0.5)
	rep.timing("jobs.miss_p50_ms", miss, 0.5)
	rep.timing("jobs.miss_p90_ms", miss, 0.9)
	return nil
}

// checkpointFF sums the fast-forward instructions of the checkpoints the
// rounds produced, read from the journal's produce events (the
// checkpoint key carries the fast-forward length as "|ff<n>|").
func (t *tracer) checkpointFF() float64 {
	var n float64
	for _, ev := range t.journal.Events() {
		if ev.Ev != grid.EvArtifactProd || ev.Class != string(artifact.Checkpoint) {
			continue
		}
		_, rest, ok := strings.Cut(ev.Key, "|ff")
		if !ok {
			continue
		}
		digits, _, _ := strings.Cut(rest, "|")
		if v, err := strconv.ParseUint(digits, 10, 64); err == nil {
			n += float64(v)
		}
	}
	return n
}
