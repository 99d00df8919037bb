package sim

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// Timing cohorts: the one way a cell is timed. Sibling cells of one
// workload window (any core kind, up to MaxCohortWidth; a lone cell is a
// cohort of one) are built at the first region start and walked in
// lockstep over the region schedule. Each window is recorded
// once (cachedRecording: shared through the artifact store, keyed by its
// absolute start instruction), decoded once per cohort into SoA chunks,
// and every member steps a chunk before the next one is decoded, so the
// batch plus the members' hot state stay cache-resident. Members whose
// timing models read architectural state (IMP, SVR) advance a private
// stream.ArchView over their own memory image row by row ahead of issue;
// the shared batch stays immutable. Simulate drives the same walk over
// private recordings.

// MaxCohortWidth caps how many cells one cohort steps in lockstep: past
// this, the members' aggregate hot state (caches, TLBs, predictors)
// stops fitting beside the shared batch and the locality win inverts.
const MaxCohortWidth = 16

// cohortChunkRows is how many decoded records one SoA chunk holds
// (~130 KiB of columns): small enough to stay cache-resident under the
// members' hot state, large enough to amortize the per-chunk overhead.
// A variable so the boundary-straddling fuzz test can shrink it.
var cohortChunkRows = 2048

// PlanCohorts groups the given cell indices (nil means all of cells)
// into schedulable units: runs of siblings — same workload, identical
// window — become one group of up to MaxCohortWidth. Grouping only joins
// adjacent cells of the workload-major cell order, so scheduling order
// and peak-memory behavior match the ungrouped plan.
func PlanCohorts(cells []CellRequest, idx []int) [][]int {
	if idx == nil {
		idx = make([]int, len(cells))
		for i := range idx {
			idx[i] = i
		}
	}
	groups := make([][]int, 0, len(idx))
	var cur []int
	for _, i := range idx {
		if len(cur) > 0 {
			prev, c := cells[cur[0]], cells[i]
			if prev.Spec.Name != c.Spec.Name || prev.P != c.P || len(cur) >= MaxCohortWidth {
				groups = append(groups, cur)
				cur = nil
			}
		}
		cur = append(cur, i)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// ExecuteCohort resolves a group of sibling cells as one unit. Each
// member resolves through the artifact store: a resident result is a
// hit, an identical in-flight cell is joined, and the members this
// caller must produce run together in lockstep. Results are
// bit-identical however a cell is served and whatever cohort it ran in.
func ExecuteCohort(reqs []CellRequest, tr *Tracker) ([]Result, []CellOutcome) {
	n := len(reqs)
	results := make([]Result, n)
	outs := make([]CellOutcome, n)
	start := time.Now()

	// Split-phase store resolution: residents are done, claims are ours
	// to produce, joins are other workers' in-flight cells we pick up
	// after our own lockstep run (waiting first could deadlock when two
	// members share one content key — relabeled identical configs).
	type member struct {
		idx int
		t   *artifact.Ticket
	}
	var claims, joins []member
	for i, req := range reqs {
		k := resultKey(req.Cfg, req.Spec.Name, req.P)
		v, oc, t := artifacts.Begin(k)
		switch {
		case t == nil:
			results[i] = v.(Result)
			outs[i].Cached = oc.Hit
			outs[i].Wall = time.Since(start)
			emitArtifact(req.Cfg.Label, req.Spec.Name, k, oc, outs[i].Wall)
		case !t.Owner():
			outs[i].Shared = true
			joins = append(joins, member{i, t})
		default:
			claims = append(claims, member{i, t})
		}
	}

	if len(claims) > 0 {
		idxs := make([]int, len(claims))
		for k, m := range claims {
			idxs[k] = m.idx
		}
		runStart := time.Now()
		runCohort(reqs, idxs, results, outs, tr)
		share := time.Since(runStart) / time.Duration(len(claims))
		for _, m := range claims {
			m.t.Commit(results[m.idx], resultBytes(results[m.idx]))
			outs[m.idx].Wall = share
			req := reqs[m.idx]
			emitArtifact(req.Cfg.Label, req.Spec.Name,
				resultKey(req.Cfg, req.Spec.Name, req.P), artifact.Outcome{}, share)
		}
	}
	for _, m := range joins {
		results[m.idx] = m.t.Wait().(Result)
		d := time.Since(start)
		outs[m.idx].Wall = d
		// The member's wall was spent blocked on another worker's run
		// (our own lockstep run first, then the wait itself).
		req := reqs[m.idx]
		jpc := &phaseCtx{label: req.Cfg.Label, workload: req.Spec.Name, ph: &outs[m.idx].Phases}
		jpc.add(PhaseStoreWait, d)
		jpc.artifact(resultKey(req.Cfg, req.Spec.Name, req.P), artifact.Outcome{Waited: true}, d)
	}
	// Stored records may carry another member's or sweep's display label.
	for i, req := range reqs {
		results[i].Label = req.Cfg.Label
	}
	return results, outs
}

// runCohort simulates the claimed members in lockstep. All claims share
// one workload window (PlanCohorts grouped them), so they consume the
// same recordings and the same decoded chunks.
func runCohort(reqs []CellRequest, claims []int, results []Result, outs []CellOutcome, tr *Tracker) {
	first := reqs[claims[0]]
	spec, p := first.Spec, first.P
	t0 := time.Now()
	// One cohort-level phase decomposition, split evenly across the
	// claimed members when the run ends. Hook events carry the first
	// member's label (the cohort runs on one worker under one banner).
	var cph PhaseTimes
	pc := &phaseCtx{label: first.Cfg.Label, workload: spec.Name, ph: &cph}
	tr.phase(+1, 0)

	w := &walk{p: p, ms: make([]Machine, len(claims)), tr: tr, pc: pc}
	for k, ci := range claims {
		outs[ci].Replayed = true
		m, err := newCohortMachine(reqs[ci].Cfg, spec, p, &outs[ci], tr, pc)
		if err != nil {
			panic(err)
		}
		w.ms[k] = m
	}
	recorded, streamFromStore := false, false
	w.record = func(src *machineBase) *stream.Recording {
		rec, oc := cachedRecording(spec, p, src, tr, pc)
		if !recorded {
			recorded, streamFromStore = true, oc.FromStore()
		}
		return rec
	}
	for k, res := range w.run(true) {
		results[claims[k]] = res
		outs[claims[k]].StreamFromStore = streamFromStore || k > 0
	}
	tr.phase(-1, 0)

	// Bank the unclaimed remainder as build, then apportion the cohort's
	// shared cost evenly to each produced cell.
	if rest := time.Since(t0) - cph.Total(); rest > 0 {
		pc.add(PhaseBuild, rest)
	}
	share := cph.Split(len(claims))
	for _, ci := range claims {
		outs[ci].Phases.AddAll(share)
	}
	tr.CohortDone(len(claims))
}

// newCohortMachine builds one cohort member at the first region start:
// restored from the shared checkpoint when fast-forwarding, else at the
// program entry of the shared image. Kinds that read architectural
// state (IMP, SVR) always get a private image for their window views;
// stream-pure kinds share the frozen image unless later regions need
// their memory carried across windows and gaps.
func newCohortMachine(cfg Config, spec workloads.Spec, p Params, out *CellOutcome, tr *Tracker, pc *phaseCtx) (Machine, error) {
	var inst *workloads.Instance
	var ck *Checkpoint
	if p.FastForward > 0 {
		var co artifact.Outcome
		ck, co = cachedCheckpoint(spec, cfg, p, tr, pc)
		out.CkptFromStore = co.FromStore()
		inst = &workloads.Instance{Name: ck.Workload, Prog: ck.prog, Mem: ck.mem, Check: ck.check}
	} else {
		inst = cachedBuild(spec, p.Scale, pc)
	}
	private := readsArch(cfg.Core) || p.Regions > 1
	if private {
		inst = cloneInstance(inst)
	}
	m, err := NewMachine(cfg, inst)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		m.Restore(ck)
	}
	if !private {
		// Nothing may write the shared image, and no later window needs
		// this member's memory.
		m.base().owns = false
	}
	return m, nil
}

// walk times machines in lockstep over one Params' region schedule:
// fast-forward gaps, run by every member itself (warming updates each
// member's own caches, TLBs and predictor), alternate with recorded
// windows the members step together. All members sit at the same
// architectural point throughout; record returns the recording of the
// window starting at a member's emulator position, without moving it.
type walk struct {
	p      Params
	ms     []Machine
	record func(src *machineBase) *stream.Recording
	tr     *Tracker
	pc     *phaseCtx
	batch  stream.DecodedBatch // chunk buffer, reused across chunks and windows
}

// run executes the schedule and returns each member's Result. atFirst
// marks members already positioned at their first region start
// (restored from the shared checkpoint), whose first fast-forward must
// not run again.
func (w *walk) run(atFirst bool) []Result {
	p := w.p
	per := make([][]Result, len(w.ms))
	for r := 0; r < max(p.Regions, 1); r++ {
		ffOK := true
		if p.FastForward > 0 && (r > 0 || !atFirst) {
			t0 := time.Now()
			for _, m := range w.ms {
				ffOK = m.FastForward(p.FastForward, p.Warm)
			}
			w.pc.add(PhaseFastForward, time.Since(t0))
			if !ffOK && r > 0 {
				break // the program ended inside the gap
			}
		}
		res := w.window(w.record(w.source()))
		if res[0].Instrs == 0 && r > 0 {
			break // the program ended inside the previous window
		}
		for k := range per {
			per[k] = append(per[k], res[k])
		}
		if !ffOK || res[0].Instrs < p.Measure {
			break
		}
	}
	out := make([]Result, len(w.ms))
	for k := range out {
		if p.FastForward == 0 && p.Regions <= 1 {
			out[k] = per[k][0]
		} else {
			out[k] = mergeRegions(per[k], p)
		}
	}
	return out
}

// source is the member windows are recorded from: one that owns its
// image when the cohort has one, so the recording runs in place.
func (w *walk) source() *machineBase {
	for _, m := range w.ms {
		if b := m.base(); b.owns {
			return b
		}
	}
	return w.ms[0].base()
}

// window times one recorded window: the members issue the warmup rows,
// reset their statistics, then issue the measured rows, closing a
// time-series interval every SampleEvery measured rows. Chunks split at
// those boundaries; where a run of issued rows ends is invisible to
// timing, so Results do not depend on the chunking. Every member's
// emulator ends at the window's end state, ready for the next gap.
func (w *walk) window(rec *stream.Recording) []Result {
	p := w.p
	for _, m := range w.ms {
		m.base().openWindow(rec)
	}
	src := stream.NewReplay(rec)
	defer src.Recycle()

	var series []*seriesSampler
	reset := func() {
		for _, m := range w.ms {
			m.ResetStats()
		}
		if p.SampleEvery > 0 {
			series = make([]*seriesSampler, len(w.ms))
			for k, m := range w.ms {
				series[k] = newSeriesSampler(m, p.SampleEvery)
			}
		}
	}
	warmup, total := p.Warmup, p.Warmup+p.Measure
	measuring := warmup == 0
	if measuring {
		reset()
	}
	// Decode and timing interleave chunk by chunk; accumulate each side
	// and attribute once, so the journal sees one segment of each per
	// window instead of one per chunk.
	var consumed uint64
	var decode, timing time.Duration
	w.tr.phase(-1, +1)
	for consumed < total {
		t0 := time.Now()
		n := w.batch.Fill(src, cohortChunkRows)
		t1 := time.Now()
		decode += t1.Sub(t0)
		if n == 0 {
			break // the program halted inside the window
		}
		for lo := 0; lo < n; {
			hi := n
			if stop := w.nextStop(consumed, measuring); consumed+uint64(hi-lo) > stop {
				hi = lo + int(stop-consumed)
			}
			for _, m := range w.ms {
				m.StepBatch(&w.batch, lo, hi)
			}
			consumed += uint64(hi - lo)
			lo = hi
			switch {
			case !measuring && consumed == warmup:
				reset()
				measuring = true
			case series != nil && (consumed-warmup)%p.SampleEvery == 0:
				for _, s := range series {
					s.tick()
				}
			}
		}
		timing += time.Since(t1)
	}
	w.tr.phase(+1, -1)
	w.pc.add(PhaseDecode, decode)
	w.pc.add(PhaseTiming, timing)
	if !measuring {
		reset() // the program halted inside the warmup: an empty window
	}

	res := make([]Result, len(w.ms))
	for k, m := range w.ms {
		if series != nil {
			series[k].tick() // the partial last interval, if any
		}
		res[k] = m.Collect()
		if series != nil {
			res[k].Series = series[k].ts
		}
		m.base().closeWindow(rec)
	}
	return res
}

// nextStop is the consumed-row count the walk must stop at next: the
// warmup boundary, else the next sample boundary, else the window end.
func (w *walk) nextStop(consumed uint64, measuring bool) uint64 {
	p := w.p
	switch {
	case !measuring:
		return p.Warmup
	case p.SampleEvery > 0:
		return p.Warmup + ((consumed-p.Warmup)/p.SampleEvery+1)*p.SampleEvery
	}
	return p.Warmup + p.Measure
}
