package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/imp"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/svr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The probes time each simulator layer alone, from outside it: loops of
// calls into a module's public functions over recorded quick-scale
// windows of three workloads of different shape, with one clock read per
// loop. They are independent of the workload being benchmarked; a traced
// run multiplies them by the workload's own event counts to estimate
// where its timing phase went (layers.coverage).

// probeWorkloads are the recorded windows every probe replays.
var probeWorkloads = []string{"BFS_KR", "NAS-IS", "HJ8"}

// probeReps is how many times each probe runs; it reports the median.
const probeReps = 3

// paperSVR16Speedup is the paper's headline: SVR16 over the in-order
// baseline, harmonic mean over its evaluation set (Fig 1).
const paperSVR16Speedup = 3.2

// window is one recorded quick-scale window and what probes derive from
// it.
type window struct {
	inst    *workloads.Instance
	rec     *stream.Recording
	batches []*stream.DecodedBatch
	rows    []emu.DynInstr
	warmup  int // rows before the statistics reset, as in QuickParams
}

// probeSample accumulates one probe's time and event count over the
// windows.
type probeSample struct {
	d time.Duration
	n int
}

func (s *probeSample) add(d time.Duration, n int) { s.d += d; s.n += n }

func (s probeSample) ns() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.d.Nanoseconds()) / float64(s.n)
}

// runProbes measures every layer probe over windows of p and returns
// them as per-layer metrics. The input seed is offset from p's so image
// builds never hit the graph cache the run filled.
func runProbes(p sim.Params) (map[string]float64, error) {
	p.Scale.Seed += 1_000_003
	reps := make([]map[string]float64, probeReps)
	for r := range reps {
		m, err := probeOnce(p, int64(r))
		if err != nil {
			return nil, err
		}
		reps[r] = m
	}
	out := map[string]float64{}
	for k := range reps[0] {
		xs := make([]float64, probeReps)
		for r := range reps {
			xs[r] = reps[r][k]
		}
		out[k] = median(xs)
	}
	return out, nil
}

// probeOnce runs every probe once over fresh windows. rep offsets the
// input seed so each repetition builds (and so times) fresh images.
func probeOnce(p sim.Params, rep int64) (map[string]float64, error) {
	var build, record, decode, fill, archview, ff probeSample
	var ino, oo, svrT, impT, access, fetch, prefetch, tlb, channel probeSample
	var speedups []float64
	sc := p.Scale
	sc.Seed += rep
	for _, name := range probeWorkloads {
		spec, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		inst := spec.Build(sc)
		build.add(time.Since(t0), 1)

		w, d, err := recordWindow(inst, p)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		n := int(w.rec.N)
		record.add(d, n)
		decode.add(timeDecode(w.rec), n)
		fill.add(timeFill(w.rec), n)
		archview.add(timeArchView(w), n)

		m, err := sim.NewMachine(sim.MachineConfig(sim.InO), cloneInst(inst))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if !m.FastForward(w.rec.N, true) {
			return nil, fmt.Errorf("probe %s: program ended inside the %d-instruction fast-forward", name, w.rec.N)
		}
		ff.add(time.Since(t0), n)

		dIno, ipcIno := timeInOrder(w, nil)
		ino.add(dIno, n)
		dOoO := timeOoO(w)
		oo.add(dOoO, n)
		dSVR, ipcSVR := timeInOrder(w, func(h *cache.Hierarchy, v *stream.ArchView, _ *workloads.Instance) inorder.Companion {
			return svr.New(sim.SVRConfig(16).SVR, h, v)
		})
		svrT.add(dSVR-dIno, n)
		dIMP, _ := timeInOrder(w, func(h *cache.Hierarchy, _ *stream.ArchView, mem *workloads.Instance) inorder.Companion {
			return imp.New(sim.MachineConfig(sim.IMP).IMP, h, mem.Mem)
		})
		impT.add(dIMP-dIno, n)
		if ipcIno > 0 {
			speedups = append(speedups, ipcSVR/ipcIno)
		}

		a, f, pf, t, c, nMem := timeHierarchy(w)
		access.add(a, nMem)
		fetch.add(f, n)
		prefetch.add(pf, nMem)
		tlb.add(t, nMem)
		channel.add(c, nMem)
	}
	speedup := stats.HarmonicMean(speedups)
	return map[string]float64{
		"workloads.build_ms":           build.ns() / 1e6,
		"emu.ff_ns_per_instr":          ff.ns(),
		"stream.record_ns_per_instr":   record.ns(),
		"stream.decode_ns_per_instr":   decode.ns(),
		"stream.fill_ns_per_row":       fill.ns(),
		"stream.archview_ns_per_row":   archview.ns(),
		"inorder.ns_per_instr":         ino.ns(),
		"ooo.ns_per_instr":             oo.ns(),
		"svr.ns_per_instr":             svrT.ns(),
		"imp.ns_per_instr":             impT.ns(),
		"cache.access_ns":              access.ns(),
		"cache.fetch_ns":               fetch.ns(),
		"cache.prefetch_ns":            prefetch.ns(),
		"tlb.lookup_ns":                tlb.ns(),
		"dram.access_ns":               channel.ns(),
		"model.svr16_speedup":          speedup,
		"model.svr16_err_vs_paper_pct": 100 * math.Abs(speedup/paperSVR16Speedup-1),
	}, nil
}

func cloneInst(inst *workloads.Instance) *workloads.Instance {
	return &workloads.Instance{Name: inst.Name, Prog: inst.Prog, Mem: inst.Mem.Clone(), Check: inst.Check}
}

// recordWindow records the first warmup+measure instructions of inst and
// decodes them into cohort-sized batches and plain rows.
func recordWindow(inst *workloads.Instance, p sim.Params) (*window, time.Duration, error) {
	cpu := emu.New(inst.Prog, inst.Mem.Clone())
	t0 := time.Now()
	rec, err := stream.Record(cpu, p.Warmup+p.Measure)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	w := &window{inst: inst, rec: rec, warmup: int(p.Warmup)}
	src := stream.NewReplay(rec)
	defer src.Recycle()
	for {
		b := new(stream.DecodedBatch)
		if b.Fill(src, batchRows) == 0 {
			break
		}
		w.batches = append(w.batches, b)
		for i := 0; i < b.N; i++ {
			var row emu.DynInstr
			b.Row(i, &row)
			w.rows = append(w.rows, row)
		}
	}
	return w, d, nil
}

// batchRows is the decoded chunk size, as cohort execution uses.
const batchRows = 2048

func timeDecode(rec *stream.Recording) time.Duration {
	src := stream.NewReplay(rec)
	defer src.Recycle()
	var row emu.DynInstr
	t0 := time.Now()
	for src.Next(&row) {
	}
	return time.Since(t0)
}

func timeFill(rec *stream.Recording) time.Duration {
	src := stream.NewReplay(rec)
	defer src.Recycle()
	var b stream.DecodedBatch
	t0 := time.Now()
	for b.Fill(src, batchRows) > 0 {
	}
	return time.Since(t0)
}

func timeArchView(w *window) time.Duration {
	v := stream.NewArchView(w.rec, w.inst.Mem.Clone())
	t0 := time.Now()
	for i := range w.rows {
		v.Advance(&w.rows[i])
	}
	return time.Since(t0)
}

// timeInOrder steps an in-order core on a fresh hierarchy over the
// window's batches, as a cohort member does — through a private arch
// view when a companion is attached — and returns the time and the IPC
// of the measured part (after the warmup reset).
func timeInOrder(w *window, companion func(*cache.Hierarchy, *stream.ArchView, *workloads.Instance) inorder.Companion) (time.Duration, float64) {
	cfg := sim.MachineConfig(sim.InO)
	h := cache.NewHierarchy(cfg.Hier)
	c := inorder.New(cfg.InO, h)
	var v *stream.ArchView
	if companion != nil {
		mem := cloneInst(w.inst)
		v = stream.NewArchView(w.rec, mem.Mem)
		c.Companion = companion(h, v, mem)
	}
	var d time.Duration
	stepBatches(w, func(b *stream.DecodedBatch, lo, hi int) {
		t0 := time.Now()
		if v != nil {
			c.RunBatchView(b, lo, hi, v)
		} else {
			c.RunBatch(b, lo, hi)
		}
		d += time.Since(t0)
	}, h.Reg.Reset)
	return d, c.IPC()
}

func timeOoO(w *window) time.Duration {
	cfg := sim.MachineConfig(sim.OoO)
	h := cache.NewHierarchy(cfg.Hier)
	c := ooo.New(cfg.OoO, h)
	var d time.Duration
	stepBatches(w, func(b *stream.DecodedBatch, lo, hi int) {
		t0 := time.Now()
		c.RunBatch(b, lo, hi)
		d += time.Since(t0)
	}, h.Reg.Reset)
	return d
}

// stepBatches walks the window's batches in row ranges, calling reset
// once the warmup rows have been stepped.
func stepBatches(w *window, step func(b *stream.DecodedBatch, lo, hi int), reset func()) {
	if w.warmup == 0 {
		reset()
	}
	done := 0
	for _, b := range w.batches {
		lo := 0
		if done < w.warmup && done+b.N > w.warmup {
			step(b, 0, w.warmup-done)
			reset()
			lo = w.warmup - done
		}
		step(b, lo, b.N)
		if done+b.N == w.warmup {
			reset()
		}
		done += b.N
	}
}

// timeHierarchy replays the window's data accesses and instruction
// fetches into fresh memory-system components, one layer at a time: the
// whole hierarchy's demand Access, FetchInstr, Prefetch (each data
// address, as an SVR lane would), a lone D-TLB, and a lone DRAM channel
// taking one request per data access. Each call is stamped with the
// cycle an in-order core issued that row, so the MSHRs and the channel
// see a core's pace: their cost per call depends on it.
func timeHierarchy(w *window) (access, fetch, prefetch, tlb, channel time.Duration, mems int) {
	cfg := sim.MachineConfig(sim.InO).Hier
	at := issueCycles(w)

	h := cache.NewHierarchy(cfg)
	t0 := time.Now()
	for i := range w.rows {
		if r := &w.rows[i]; r.Instr.IsMem() {
			h.Access(r.PC, r.Addr, r.Instr.Kind() == isa.KindStore, at[i])
			mems++
		}
	}
	access = time.Since(t0)

	h = cache.NewHierarchy(cfg)
	t0 = time.Now()
	for i := range w.rows {
		h.FetchInstr(inorder.CodeBase+uint64(w.rows[i].PC)*4, at[i])
	}
	fetch = time.Since(t0)

	h = cache.NewHierarchy(cfg)
	t0 = time.Now()
	for i := range w.rows {
		if r := &w.rows[i]; r.Instr.IsMem() {
			h.Prefetch(r.Addr, at[i], cache.OriginSVR)
		}
	}
	prefetch = time.Since(t0)

	t := cache.NewTLB("DTLB", cfg.DTLBEntries, cfg.DTLBEntries)
	t0 = time.Now()
	for i := range w.rows {
		if r := &w.rows[i]; r.Instr.IsMem() && !t.Lookup(r.Addr) {
			t.Insert(r.Addr)
		}
	}
	tlb = time.Since(t0)

	ch := dram.New(cfg.DRAM)
	t0 = time.Now()
	for i := range w.rows {
		if w.rows[i].Instr.IsMem() {
			ch.Access(at[i])
		}
	}
	channel = time.Since(t0)
	return access, fetch, prefetch, tlb, channel, mems
}

// issueCycles steps an in-order core over the window (untimed) and
// returns the cycle it issued each row at, read from its trace hook.
func issueCycles(w *window) []int64 {
	cfg := sim.MachineConfig(sim.InO)
	c := inorder.New(cfg.InO, cache.NewHierarchy(cfg.Hier))
	rec := &issueRecorder{at: make([]int64, len(w.rows))}
	if len(w.rows) > 0 {
		rec.base = w.rows[0].Seq
	}
	c.Tracer = rec
	for _, b := range w.batches {
		c.RunBatch(b, 0, b.N)
	}
	return rec.at
}

type issueRecorder struct {
	base uint64
	at   []int64
}

func (r *issueRecorder) Emit(ev trace.Event) {
	if ev.Kind == trace.KindIssue {
		r.at[ev.Seq-r.base] = ev.Cycle
	}
}
