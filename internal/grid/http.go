package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The HTTP/JSON surface of the scheduler: submit grids, stream per-cell
// results as they finish (NDJSON or SSE), poll and list jobs, cancel and
// resume. Served results go through exactly the same ExecuteCohort path as
// in-process runs, so a streamed cell is bit-identical to what `svrsim
// run` would print for the same grid.

// SubmitRequest is the POST /api/jobs body. Configs are named
// ("inorder", "imp", "ooo", "svrN"); Grid optionally appends full
// machine-configuration records for custom sweeps. Params defaults to
// the preset's window ("quick", "default" or "paper"; default "quick"),
// and Workloads defaults to the paper's evaluation set.
type SubmitRequest struct {
	Name      string       `json:",omitempty"`
	Priority  int          `json:",omitempty"`
	Configs   []string     `json:",omitempty"`
	Grid      []sim.Config `json:",omitempty"`
	Workloads []string     `json:",omitempty"`
	Preset    string       `json:",omitempty"`
	Params    *sim.Params  `json:",omitempty"`
}

// resolve expands the wire request into a scheduler request.
func (r SubmitRequest) resolve() (JobRequest, error) {
	req := JobRequest{Name: r.Name, Priority: r.Priority, Workloads: r.Workloads}
	for _, name := range r.Configs {
		cfg, err := ParseConfig(name)
		if err != nil {
			return JobRequest{}, err
		}
		req.Configs = append(req.Configs, cfg)
	}
	req.Configs = append(req.Configs, r.Grid...)
	if len(req.Workloads) == 0 {
		for _, sp := range workloads.Evaluation() {
			req.Workloads = append(req.Workloads, sp.Name)
		}
	}
	switch r.Preset {
	case "", "quick":
		req.Params = sim.QuickParams()
	case "default":
		req.Params = sim.DefaultParams()
	case "paper":
		req.Params = sim.PaperParams()
	default:
		return JobRequest{}, fmt.Errorf("grid: unknown preset %q (want quick, default, or paper)", r.Preset)
	}
	if r.Params != nil {
		req.Params = *r.Params
	}
	return req, nil
}

// StatusPayload is the GET /api/status body: the aggregate scheduler
// view, the queue, every job, and the artifact store counters.
type StatusPayload struct {
	Scheduler  sim.GridStatus
	QueueDepth int
	Jobs       []JobStatus
	Artifacts  artifact.Stats
}

// Status assembles the service-wide status snapshot.
func (s *Scheduler) Status() StatusPayload {
	p := StatusPayload{
		Scheduler:  sim.CurrentStatus(),
		QueueDepth: s.QueueDepth(),
		Artifacts:  sim.Artifacts().Stats(),
	}
	for _, j := range s.Jobs() {
		p.Jobs = append(p.Jobs, j.Status())
	}
	return p
}

// Handler returns the scheduler's HTTP API.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("GET /api/jobs", func(w http.ResponseWriter, _ *http.Request) {
		out := []JobStatus{}
		for _, j := range s.Jobs() {
			out = append(out, j.Status())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /api/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /api/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		j, _ := s.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("POST /api/jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Resume(r.PathValue("id")); err != nil {
			var full *ErrQueueFull
			if errors.As(err, &full) {
				httpError(w, http.StatusTooManyRequests, err)
			} else {
				httpError(w, http.StatusConflict, err)
			}
			return
		}
		j, _ := s.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, j.Status())
	})
	return mux
}

// maxSubmitBytes bounds a job submission body. Real submissions are a
// few KiB of config and workload names; decoding an unbounded body would
// let one request pin arbitrary server memory.
const maxSubmitBytes = 1 << 20

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sr SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	req, err := sr.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		var full *ErrQueueFull
		switch {
		case errors.As(err, &full):
			// Backpressure: the client sheds load or retries later.
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusTooManyRequests, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleTrace renders the installed journal's capture of one job as a
// Chrome/Perfetto trace (open it at ui.perfetto.dev). 404s when the job
// is unknown; 409s when no capturing journal is installed (serve always
// installs one).
func (s *Scheduler) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	jn := ActiveJournal()
	if jn == nil || !jn.Captures() {
		httpError(w, http.StatusConflict, fmt.Errorf("no capturing journal installed"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteTrace(w, JobEvents(jn.Events(), id))
}

// handleResults streams the job's cells in completion order and returns
// once the job reaches a terminal state. Default framing is NDJSON (one
// sim.CellResult per line); SSE ("?format=sse" or "Accept: text/event-stream")
// wraps each cell in a "cell" event and finishes with a "done" event
// carrying the job status.
func (s *Scheduler) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flush()
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		cell, ok := j.Result(r.Context(), i)
		if !ok {
			break
		}
		if sse {
			fmt.Fprint(w, "event: cell\ndata: ")
		}
		if err := enc.Encode(cell); err != nil {
			return
		}
		if sse {
			fmt.Fprint(w, "\n")
		}
		flush()
	}
	if sse && r.Context().Err() == nil {
		fmt.Fprint(w, "event: done\ndata: ")
		enc.Encode(j.Status())
		fmt.Fprint(w, "\n")
		flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct{ Error string }{err.Error()})
}
