package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// servePool is the workloads served jobs run on, and serveNamed the
// named machine configurations every pool workload is warmed with.
var (
	servePool  = []string{"BFS_KR", "PR_UR", "CC_TW", "SSSP_LJN", "HJ2", "HJ8", "NAS-IS", "Randacc"}
	serveNamed = []string{"inorder", "ooo", "svr16"}
)

// missEvery makes every third job of a client a miss job, so
// job_gmean_ms weighs the store-hit path twice as much as the miss path;
// the traced run splits the two apart.
const missEvery = 3

// serveRound is how many jobs each client runs in a round.
const serveRound = 400

// serveState is the server side and the job script of serve-overlap.
type serveState struct {
	srv     *http.Server
	handler atomic.Value // http.Handler: the API of the current round's scheduler
	served  chan error   // Serve's return value
	base    string
	client  *http.Client
	p       sim.Params

	perRound    int                 // jobs each client runs in a round
	poolDigests map[string]string   // "label/workload" → Result digest, from the warm-up
	rngs        [clients]*rand.Rand // each client's job script
	issued      [clients]int        // jobs each client has drawn this round
	tr          *tracer
}

// serveOverlap drives `svrsim serve`'s HTTP API on loopback with a
// seeded closed loop of two clients.
var serveOverlap = &workload{
	name:   "serve-overlap",
	why:    "HTTP job mix, 2/3 store hits and 1/3 jobs with a never-seen cell: grid, HTTP, JSON and artifact layers dominate",
	checks: 8,
	setup: func(b *bench) error {
		p := sim.QuickParams()
		p.Warmup, p.Measure = 30_000, 100_000
		p = b.sized(p)
		s := &serveState{p: p, perRound: b.roundSize(serveRound), poolDigests: map[string]string{}, served: make(chan error, 1), tr: b.tr}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.handler.Store(b.sched.Handler())
		s.srv = &http.Server{Handler: s}
		go func() { s.served <- s.srv.Serve(ln) }()
		s.base = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
		b.serve = s

		s.poolDigests, err = s.warmPool()
		return err
	},
	next: func(b *bench, c int) (job, bool) { return b.serve.nextJob(b, c) },
}

// warmPool runs one warm-up job per pool workload, as a long-running
// server would have served: images, recordings and the named cells'
// results become resident. Two run at a time, like the clients. It
// returns the results' digests.
func (s *serveState) warmPool() (map[string]string, error) {
	errs := make([]error, len(servePool))
	digests := make([]map[string]string, len(servePool))
	forEach(len(servePool), func(i int) { digests[i], errs[i] = s.warm(servePool[i]) })
	all := map[string]string{}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		for k, d := range digests[i] {
			all[k] = d
		}
	}
	return all, nil
}

// restart begins a round on sched. The results the last round added to
// the store are dropped and the pool's warmed again, so every round
// starts with the same resident results (the rewarmed ones must match
// set-up's), and every client's script starts over from its seed, so
// each round submits the same jobs.
func (s *serveState) restart(seed int64, sched *grid.Scheduler) error {
	s.handler.Store(sched.Handler())
	sim.Artifacts().Purge(artifact.Result)
	digests, err := s.warmPool()
	if err != nil {
		return err
	}
	for k, d := range digests {
		if d != s.poolDigests[k] {
			return fmt.Errorf("warm-up cell %s: result differs from set-up's", k)
		}
	}
	for c := range s.rngs {
		s.rngs[c] = rand.New(rand.NewSource(seed*clients + int64(c)))
		s.issued[c] = 0
	}
	return nil
}

// ServeHTTP passes each request to the API of the current round's
// scheduler.
func (s *serveState) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.Load().(http.Handler).ServeHTTP(w, r)
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
}

// warm serves the named configurations on one pool workload and returns
// their digests: every later hit must return exactly these bytes.
func (s *serveState) warm(w string) (map[string]string, error) {
	cells, err := s.submit(grid.SubmitRequest{Configs: serveNamed, Workloads: []string{w}, Params: &s.p}, len(serveNamed))
	if err != nil {
		return nil, fmt.Errorf("warm-up job on %s: %w", w, err)
	}
	digests := map[string]string{}
	for _, c := range cells {
		digests[c.Label+"/"+w] = digestBytes(c.Result)
	}
	return digests, nil
}

// servedCell is one NDJSON line of a job's result stream.
type servedCell struct {
	Label    string
	Workload string
	Cached   bool
	Shared   bool
	Result   json.RawMessage
}

// nextJob draws client c's next job from its seeded script: two hit
// jobs (one to three named configurations on a pool workload, all
// resident), then a miss job (the same plus one configuration no job of
// the round requested before, the next of an unbounded family that
// each client draws from in turn). It reports false once the client has
// run its share of the round.
func (s *serveState) nextJob(b *bench, c int) (job, bool) {
	rng := s.rngs[c]
	k := s.issued[c]
	if k == s.perRound {
		return job{}, false
	}
	s.issued[c]++
	w := servePool[rng.Intn(len(servePool))]
	names := append([]string(nil), serveNamed...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:1+rng.Intn(len(names))]
	var fresh []sim.Config
	if k%missEvery == missEvery-1 {
		fresh = []sim.Config{freshConfig(int64(k/missEvery*clients + c))}
		names = names[:len(names)-1]
	}
	key := fmt.Sprintf("%v+%d/%s", names, len(fresh), w)
	return job{key: key, run: func() (jobOut, error) { return s.runJob(b, w, names, fresh) }}, true
}

// freshConfig is miss draw d: one of four machine kinds at a DRAM
// bandwidth no earlier draw of that kind used, so its result key is new.
func freshConfig(d int64) sim.Config {
	var cfg sim.Config
	switch d % 4 {
	case 0:
		cfg = sim.MachineConfig(sim.InO)
	case 1:
		cfg = sim.MachineConfig(sim.IMP)
	case 2:
		cfg = sim.MachineConfig(sim.OoO)
	default:
		cfg = sim.SVRConfig(16)
	}
	cfg.Hier.DRAM.BandwidthGBps = 20 + 0.25*float64(d/4)
	cfg.Label = fmt.Sprintf("fresh%d", d)
	return cfg
}

func (s *serveState) runJob(b *bench, w string, names []string, fresh []sim.Config) (jobOut, error) {
	spec, err := workloads.Get(w)
	if err != nil {
		return jobOut{}, err
	}
	req := grid.SubmitRequest{Configs: names, Grid: fresh, Workloads: []string{w}, Params: &s.p}
	cells, err := s.submit(req, len(names)+len(fresh))
	if err != nil {
		return jobOut{}, err
	}
	out := jobOut{hit: true}
	freshByLabel := map[string]sim.Config{}
	for _, f := range fresh {
		freshByLabel[f.Label] = f
	}
	recs := make([]cellRecord, 0, len(cells))
	for _, c := range cells {
		if c.Workload != w {
			return jobOut{}, fmt.Errorf("cell %s/%s in a job on %s", c.Label, c.Workload, w)
		}
		out.hit = out.hit && c.Cached
		d := digestBytes(c.Result)
		if cfg, ok := freshByLabel[c.Label]; ok {
			rec := cellRecord{round: b.round, cfg: cfg, spec: spec, p: s.p, fromStore: c.Cached || c.Shared, res: new(sim.Result), raw: c.Result}
			if err := json.Unmarshal(c.Result, rec.res); err != nil {
				return jobOut{}, fmt.Errorf("cell %s: malformed result: %w", c.Label, err)
			}
			recs = append(recs, rec)
			continue
		}
		key := c.Label + "/" + w
		want, ok := s.poolDigests[key]
		if !ok {
			return jobOut{}, fmt.Errorf("unexpected cell %s", key)
		}
		if d != want {
			return jobOut{}, fmt.Errorf("cell %s: served result differs from its warm-up result", key)
		}
		out.outputs = append(out.outputs, output{key, d})
	}
	b.mu.Lock()
	b.cells = append(b.cells, recs...)
	b.mu.Unlock()
	return out, nil
}

// submit POSTs one job and reads its NDJSON result stream to the end,
// expecting want cells. Any non-2xx response, a malformed line or a short
// stream is an error.
func (s *serveState) submit(req grid.SubmitRequest, want int) ([]servedCell, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st grid.JobStatus
	err = decodeResponse(resp, http.StatusAccepted, &st)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	resp, err = s.client.Get(s.base + "/api/jobs/" + st.ID + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	var cells []servedCell
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var c servedCell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return nil, fmt.Errorf("results: malformed line: %w", err)
		}
		c.Result = append(json.RawMessage(nil), c.Result...)
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if len(cells) != want {
		return nil, fmt.Errorf("results: stream ended after %d of %d cells", len(cells), want)
	}
	s.tr.jobTimes(t1.Sub(t0), time.Since(t1))
	return cells, nil
}

// decodeResponse checks the status code and decodes the JSON body.
func decodeResponse(resp *http.Response, code int, v any) error {
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != code {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, v)
}
