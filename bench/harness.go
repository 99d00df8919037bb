package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// clients is how many closed-loop clients submit jobs at once, and
// workers the size of the scheduler's cell pool: the benchmark keeps
// its load to two threads and two connections.
const (
	clients = 2
	workers = 2
)

// goldenSeed is the seed the committed golden digests were made with.
const goldenSeed = 42

//go:embed golden/*.json
var goldenFS embed.FS

// bench is the state of one benchmark child process: the scheduler the
// jobs run on, the workload's job list, and what the timed region
// recorded.
type bench struct {
	wl    *workload
	seed  int64
	tiny  bool // smoke-test sized inputs (see sized)
	sched *grid.Scheduler
	tr    *tracer // nil unless this run is traced

	list   []job // grid workloads: one round's jobs, handed out in order
	cursor atomic.Int64

	serve *serveState // serve-overlap only

	opts   grid.Options // every round's scheduler is made with these
	round  int          // the round in progress; set between rounds
	rounds []roundStat  // what each finished round measured
	mem    []memPoint   // memory readings over the timed region

	mu      sync.Mutex
	records []jobRecord
	cells   []cellRecord
	settled int // cells[:settled] have been settled
}

// roundStat is one round of the timed region: when it ran and the CPU
// time the process spent in it.
type roundStat struct {
	start, end time.Time
	cpu        time.Duration
}

// job is one unit of work a client submits and waits for.
type job struct {
	key string // names the job's output in the golden files
	run func() (jobOut, error)
}

// jobOut is what a finished job hands back for checking.
type jobOut struct {
	outputs []output // digests pinned by the golden files
	hit     bool     // every cell was served from the artifact store
}

// output is one digest of a job's output, keyed for the golden files.
type output struct{ key, digest string }

type jobRecord struct {
	key string
	lat time.Duration
	out jobOut
	err error
}

// cellRecord is one cell a job returned. The Result itself is held only
// until its round ends (see settle), so that the benchmark's own memory
// does not grow from round to round; what the checks and metrics need of
// it is kept.
type cellRecord struct {
	round     int
	cfg       sim.Config
	spec      workloads.Spec
	p         sim.Params
	fromStore bool // served from the artifact store, not simulated by this job

	// Until settled:
	res *sim.Result
	raw []byte // the Result as served over HTTP; nil for in-process jobs

	// Once settled:
	instrs uint64
	digest string // of the Result's JSON, as served or as encoded here
}

// settle digests the cell's Result and lets it go.
func (c *cellRecord) settle() error {
	c.instrs = c.res.Instrs
	if c.raw != nil {
		c.digest = digestBytes(c.raw)
	} else {
		d, err := digestJSON(c.res)
		if err != nil {
			return fmt.Errorf("cell %s/%s: %w", c.cfg.Label, c.spec.Name, err)
		}
		c.digest = d
	}
	c.res, c.raw = nil, nil
	return nil
}

// settle settles the cells the last round returned, outside the timed
// region, handing each to the tracer first.
func (b *bench) settle() error {
	for i := b.settled; i < len(b.cells); i++ {
		c := &b.cells[i]
		b.tr.cell(c)
		if err := c.settle(); err != nil {
			return err
		}
	}
	b.settled = len(b.cells)
	return nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestJSON(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(blob), nil
}

func newBench(wl *workload, seed int64, traced, tiny bool) *bench {
	b := &bench{wl: wl, seed: seed, tiny: tiny, opts: grid.Options{Workers: workers}}
	if traced {
		b.tr = newTracer()
		b.opts.ExecuteGroup = b.tr.executeGroup
	}
	b.sched = grid.New(b.opts)
	return b
}

func (b *bench) close() {
	if b.serve != nil {
		b.serve.close()
	}
	b.sched.Shutdown()
}

// runGrid submits one grid job to the scheduler and waits for all of
// its cells.
func (b *bench) runGrid(cfgs []sim.Config, specs []workloads.Spec, p sim.Params) (*sim.ResultSet, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	t0 := time.Now()
	j, err := b.sched.Submit(grid.JobRequest{Configs: cfgs, Workloads: names, Params: p})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rs := j.Wait()
	b.tr.jobTimes(t1.Sub(t0), time.Since(t1))
	if st := j.Status(); st.State != grid.StateDone || st.Done != len(cfgs)*len(specs) {
		return nil, fmt.Errorf("job %s ended %s with %d of %d cells", j.ID, st.State, st.Done, len(cfgs)*len(specs))
	}
	return rs, nil
}

// addCells keeps every cell of a finished grid job for the cross-check
// and the instruction count.
func (b *bench) addCells(rs *sim.ResultSet, cfgs []sim.Config, specs []workloads.Spec, p sim.Params) error {
	recs := make([]cellRecord, 0, len(cfgs)*len(specs))
	for _, spec := range specs {
		for _, cfg := range cfgs {
			res, ok := rs.Get(cfg.Label, spec.Name)
			if !ok {
				return fmt.Errorf("cell %s/%s missing from the result set", cfg.Label, spec.Name)
			}
			recs = append(recs, cellRecord{round: b.round, cfg: cfg, spec: spec, p: p, res: &res})
		}
	}
	b.mu.Lock()
	b.cells = append(b.cells, recs...)
	b.mu.Unlock()
	return nil
}

// sized returns p with the run's seed, shrunk to smoke-test size (tiny
// images, windows of a few thousand instructions) when the run is tiny.
func (b *bench) sized(p sim.Params) sim.Params {
	p.Scale.Seed = b.seed
	if !b.tiny {
		return p
	}
	p.Scale = workloads.TinyScale()
	p.Scale.Seed = b.seed
	p.Warmup, p.Measure = min(p.Warmup, 1000), min(p.Measure, 3000)
	p.FastForward = min(p.FastForward, 2000)
	return p
}

// roundSize returns n, the jobs in one of the workload's rounds (on
// serve-overlap, per client), cut to a few for smoke-test runs.
func (b *bench) roundSize(n int) int {
	if b.tiny {
		return min(n, 3)
	}
	return n
}

// nextListed hands out the round's job list in order, and reports false
// once it is exhausted.
func (b *bench) nextListed() (job, bool) {
	i := int(b.cursor.Add(1) - 1)
	if i >= len(b.list) {
		return job{}, false
	}
	return b.list[i], true
}

// drive runs the timed region: rounds of the workload's fixed jobs, one
// after another, while the next round is expected to end within d (at
// least one). It returns the summed wall time of the rounds.
func (b *bench) drive(d time.Duration) (time.Duration, error) {
	t0 := time.Now()
	var wall, last time.Duration
	for r := 0; r == 0 || time.Since(t0)+last <= d; r++ {
		if err := b.startRound(r); err != nil {
			return 0, err
		}
		b.tr.start()
		ru0, start := rusage(), time.Now()
		b.runRound()
		end, ru1 := time.Now(), rusage()
		b.tr.stop()
		b.rounds = append(b.rounds, roundStat{start: start, end: end, cpu: cpuTime(ru1) - cpuTime(ru0)})
		last = end.Sub(start)
		wall += last
	}
	return wall, b.settle()
}

// startRound puts back, outside the timed region, the state the first
// round started from, so every round does the same work: the job list
// starts over on a new scheduler; on the grid workloads every artifact
// but the workload images built in set-up is dropped, so the cells run
// cold again; serve-overlap restarts its clients' scripts and keeps its
// resident results, of which its hit jobs are made. The last round's
// cells are settled and the collector returns what they and the old
// scheduler held, so each round starts from the same heap.
func (b *bench) startRound(r int) error {
	if err := b.settle(); err != nil {
		return err
	}
	b.round = r
	b.cursor.Store(0)
	b.sched.Shutdown()
	b.sched = grid.New(b.opts)
	if b.serve != nil {
		if err := b.serve.restart(b.seed, b.sched); err != nil {
			return err
		}
	} else {
		for _, c := range []artifact.Class{artifact.Checkpoint, artifact.Stream, artifact.Decoded, artifact.Result} {
			sim.Artifacts().Purge(c)
		}
	}
	debug.FreeOSMemory()
	return nil
}

// runRound runs the closed-loop clients until the round's jobs run out:
// each client submits its next job when the previous one has finished.
func (b *bench) runRound() {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j, ok := b.wl.next(b, c)
				if !ok {
					return
				}
				start := time.Now()
				out, err := runJob(j)
				rec := jobRecord{key: j.key, lat: time.Since(start), out: out, err: err}
				b.mu.Lock()
				b.records = append(b.records, rec)
				b.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// runJob runs j, turning a panic on the client goroutine (an experiment
// or the matrix runner giving up) into a failed job.
func runJob(j job) (out jobOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return j.run()
}

// childMain is one child process: set up, and unless only the set-up is
// measured, run the timed region, check the outputs and report.
func childMain(w io.Writer, f runFlags) error {
	wl, err := lookupWorkload(f.workload)
	if err != nil {
		return err
	}
	b := newBench(wl, f.seed, f.trace == 1, f.tiny)
	defer b.close()
	if err := wl.setup(b); err != nil {
		return fmt.Errorf("%s setup: %w", wl.name, err)
	}
	ready := time.Now()
	switch f.child {
	case "setup":
		return writeReport(w, ready, childReport{})
	case "golden":
		return writeGolden(w, b)
	case "run":
	default:
		return fmt.Errorf("unknown child mode %q", f.child)
	}

	mem := startMemSampler()
	wall, err := b.drive(time.Duration(f.seconds * float64(time.Second)))
	b.mem = mem.stop()
	if err != nil {
		return err
	}

	var golden map[string]string
	if f.seed == goldenSeed && !f.tiny {
		if golden, err = loadGolden(wl.name); err != nil {
			return err
		}
	}
	rep := childReport{Jobs: len(b.records), Metrics: map[string]float64{}, Notes: map[string]string{}}
	b.endToEnd(&rep)
	rep.Attempted, rep.Failed, rep.Failures = b.verify(golden)
	if b.tr != nil {
		if err := b.tr.report(b, wall, &rep); err != nil {
			return err
		}
	}
	return writeReport(w, ready, rep)
}

func writeReport(w io.Writer, ready time.Time, rep childReport) error {
	blob, err := json.Marshal(struct {
		childReport
		ReadyUnixNano int64
	}{rep, ready.UnixNano()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// rusage returns the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd computes the end-to-end metrics of the timed region into
// rep, except setup_s, which the parent measures. Every round does the
// same work, so each metric pools all of them: the machine's speed
// drifts over tens of seconds, and a mean over the whole region averages
// that drift, where the median of a few rounds lands on one of its
// levels.
func (b *bench) endToEnd(rep *childReport) {
	var busy, cpu, span time.Duration
	var instrs uint64
	var lats []float64
	for _, r := range b.records {
		busy += r.lat
		lats = append(lats, float64(r.lat.Nanoseconds())/1e6)
	}
	for _, c := range b.cells {
		if !c.fromStore { // cells served from the store simulated nothing
			instrs += c.instrs
		}
	}
	var memSum float64
	for _, rs := range b.rounds {
		cpu += rs.cpu
		d := rs.end.Sub(rs.start)
		mib, _ := meanHeldMiB(b.mem, rs.start, rs.end)
		memSum += mib * d.Seconds()
		span += d
	}
	m := rep.Metrics
	if instrs > 0 {
		// Throughput over the time clients spent waiting on jobs, averaged
		// over the clients, so each round's tail (one client done, the
		// other finishing its last job) does not count.
		m["sim_minstr_per_s"] = float64(instrs) / 1e6 / (busy.Seconds() / clients)
		m["cpu_ns_per_instr"] = float64(cpu.Nanoseconds()) / float64(instrs)
	}
	// The geometric mean weighs every job alike and moves smoothly when
	// one job's cost does: a round's jobs differ in size by up to 25
	// times, so a median sits on whichever job falls in the middle.
	m["job_gmean_ms"] = geomean(lats)
	if span > 0 {
		m["mem_mean_mib"] = memSum / span.Seconds()
	}
	over := fmt.Sprintf("over %d rounds", len(b.rounds))
	for _, name := range []string{"sim_minstr_per_s", "cpu_ns_per_instr", "mem_mean_mib"} {
		rep.Notes[name] = over
	}
	rep.Notes["job_gmean_ms"] = fmt.Sprintf("n=%d, %s", len(lats), over)
}

// maxFailures caps how many failure reasons a report carries.
const maxFailures = 5

// verify checks the timed region's outputs after the fact: every job
// must have succeeded, every output must match its digest in golden
// (when golden is non-nil: a run at the golden seed), every cell a later
// round simulated must match the same cell of the first round, and a
// seeded sample of simulated cells is recomputed from scratch with
// sim.Run and compared byte for byte. It returns the operations
// attempted (jobs, cells compared across rounds and recomputed cells)
// and those failed.
func (b *bench) verify(golden map[string]string) (attempted, failed int, failures []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(failures) < maxFailures {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	for _, r := range b.records {
		attempted++
		if r.err != nil {
			fail("job %s: %v", r.key, r.err)
			continue
		}
		if golden == nil {
			continue
		}
		for _, o := range r.out.outputs {
			if want, ok := golden[o.key]; !ok {
				fail("job %s: output %s has no golden digest", r.key, o.key)
				break
			} else if o.digest != want {
				fail("job %s: output %s digest %.12s, golden %.12s", r.key, o.key, o.digest, want)
				break
			}
		}
	}
	for _, msg := range append(b.roundCheck(), b.crossCheck()...) {
		attempted++
		if msg != "" {
			fail("%s", msg)
		}
	}
	return attempted, failed, failures
}

// roundCheck compares every simulated cell of a later round with the
// same cell (workload, configuration and parameters) of the first round:
// each round does the same work from the same state, so their Results
// must be byte for byte the same. It returns one entry per compared
// cell: "" when it matched, else the reason.
func (b *bench) roundCheck() []string {
	first := map[string]string{}
	var msgs []string
	for _, c := range b.cells {
		if c.fromStore {
			continue
		}
		key, err := digestJSON(struct {
			Workload string
			Cfg      sim.Config
			P        sim.Params
		}{c.spec.Name, c.cfg, c.p})
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("round %d cell %s/%s: %v", c.round, c.cfg.Label, c.spec.Name, err))
			continue
		}
		if c.round == 0 {
			first[key] = c.digest
			continue
		}
		want, ok := first[key]
		if !ok {
			continue // a cell the first round did not simulate: serve-overlap's fresh configurations
		}
		msg := ""
		if c.digest != want {
			msg = fmt.Sprintf("round %d cell %s/%s: result differs from round 0", c.round, c.cfg.Label, c.spec.Name)
		}
		msgs = append(msgs, msg)
	}
	return msgs
}

// crossCheck recomputes a seeded sample of the cells the first round
// simulated (roundCheck holds the later rounds to those) with sim.Run — a
// fresh workload instance, the live emulator, no artifact store, no
// cohorts — and compares each Result byte for byte with what the job
// returned. It returns one entry per recomputed cell: "" when it matched,
// else the reason.
func (b *bench) crossCheck() []string {
	var pool []cellRecord
	for _, c := range b.cells {
		if c.round == 0 && !c.fromStore {
			pool = append(pool, c)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:min(len(pool), b.wl.checks)]

	msgs := make([]string, len(pool))
	forEach(len(pool), func(i int) { msgs[i] = checkCell(pool[i]) })
	return msgs
}

// forEach calls f(i) for every i in [0, n) on workers goroutines and
// waits for them.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

func checkCell(c cellRecord) (msg string) {
	name := c.cfg.Label + "/" + c.spec.Name
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("cross-check %s: reference run panicked: %v", name, r)
		}
	}()
	ref := sim.Run(c.spec, c.cfg, c.p)
	want, err := digestJSON(ref)
	if err != nil {
		return fmt.Sprintf("cross-check %s: %v", name, err)
	}
	if c.digest != want {
		return fmt.Sprintf("cross-check %s: result differs from a fresh sim.Run", name)
	}
	return ""
}
