package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPLifecycle drives the full API against a stub executor: submit
// by config name, stream NDJSON results, poll status, list, and observe
// the artifact/scheduler status payloads.
func TestHTTPLifecycle(t *testing.T) {
	s := New(Options{Workers: 2, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		return stubGroup(reqs, sim.CellOutcome{Replayed: true})
	}})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/api/jobs", SubmitRequest{
		Name: "demo", Configs: []string{"inorder", "svr16"}, Workloads: []string{"Randacc"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	st := decode[JobStatus](t, resp)
	if st.ID == "" || st.Cells != 2 {
		t.Fatalf("submit response %+v", st)
	}

	// Stream results: NDJSON, one line per cell, closes at job end.
	resp2, err := http.Get(srv.URL + "/api/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results content-type %q", ct)
	}
	var cells []sim.CellResult
	sc := bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c sim.CellResult
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		cells = append(cells, c)
	}
	resp2.Body.Close()
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	labels := map[string]bool{}
	for i, c := range cells {
		if c.Seq != i || c.Workload != "Randacc" || !c.Replayed {
			t.Errorf("cell %d: %+v", i, c)
		}
		labels[c.Label] = true
	}
	if !labels["in-order"] || !labels["SVR16"] {
		t.Errorf("streamed labels %v", labels)
	}

	// Poll: the job is done with both cells accounted.
	st = decode[JobStatus](t, mustGet(t, srv.URL+"/api/jobs/"+st.ID))
	if st.State != StateDone || st.Done != 2 || st.ReplayedCells != 2 {
		t.Errorf("poll %+v", st)
	}

	// List and service status.
	jobs := decode[[]JobStatus](t, mustGet(t, srv.URL+"/api/jobs"))
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("list %+v", jobs)
	}
	payload := decode[StatusPayload](t, mustGet(t, srv.URL+"/api/status"))
	if len(payload.Jobs) != 1 || payload.Jobs[0].State != StateDone {
		t.Errorf("status payload jobs %+v", payload.Jobs)
	}
	if payload.Artifacts == nil {
		t.Error("status payload has no artifact stats")
	}

	// Cancel after completion is a conflict; unknown jobs are 404.
	if resp := postJSON(t, srv.URL+"/api/jobs/"+st.ID+"/cancel", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel done job: status %d", resp.StatusCode)
	}
	if resp := mustGet(t, srv.URL+"/api/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	// Bad submissions are 400s.
	if resp := postJSON(t, srv.URL+"/api/jobs", SubmitRequest{Configs: []string{"warpdrive"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad config name: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/jobs", SubmitRequest{Configs: []string{"svr16"}, Preset: "huge"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad preset: status %d", resp.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPSSE: the SSE framing wraps each cell in an event and finishes
// with a done event carrying the job status.
func TestHTTPSSE(t *testing.T) {
	s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := decode[JobStatus](t, postJSON(t, srv.URL+"/api/jobs", SubmitRequest{
		Configs: []string{"imp"}, Workloads: []string{"Randacc"},
	}))
	resp := mustGet(t, srv.URL+"/api/jobs/"+st.ID+"/results?format=sse")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content-type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "event: cell\ndata: ") {
		t.Errorf("SSE body missing cell event:\n%s", body)
	}
	if !strings.Contains(body, "event: done\ndata: ") {
		t.Errorf("SSE body missing done event:\n%s", body)
	}
}

// TestHTTPBackpressure: a submission that overflows the queue is a 429
// with Retry-After and enqueues nothing.
func TestHTTPBackpressure(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueCap: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	defer func() { close(release); s.Shutdown() }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp := postJSON(t, srv.URL+"/api/jobs", SubmitRequest{
		Configs: []string{"inorder"}, Workloads: []string{"Randacc"},
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pin submit status %d", resp.StatusCode)
	}
	<-started // worker busy; capacity 1 remains
	resp := postJSON(t, srv.URL+"/api/jobs", SubmitRequest{
		Configs: []string{"inorder", "imp"}, Workloads: []string{"Randacc"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()
	if d := s.QueueDepth(); d != 0 {
		t.Errorf("rejected submission left %d queued cells", d)
	}
}

// TestHTTPSubmitBodyBounded: a submission body past the bound is refused
// with 413 and creates no job.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"Name":"` + strings.Repeat("x", maxSubmitBytes) + `","Configs":["inorder"],"Workloads":["Randacc"]}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("oversized submission created %d jobs", n)
	}
}

// TestHTTPCancelResume exercises cancel/resume over the API while cells
// are in flight: three workloads, three queue items.
func TestHTTPCancelResume(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Options{Workers: 1, ExecuteGroup: func(reqs []sim.CellRequest, _ *sim.Tracker) ([]sim.Result, []sim.CellOutcome) {
		started <- struct{}{}
		<-release
		return stubGroup(reqs, sim.CellOutcome{})
	}})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := decode[JobStatus](t, postJSON(t, srv.URL+"/api/jobs", SubmitRequest{
		Configs: []string{"inorder"}, Workloads: []string{"Randacc", "HJ2", "NAS-IS"},
	}))
	<-started
	cst := decode[JobStatus](t, postJSON(t, srv.URL+"/api/jobs/"+st.ID+"/cancel", nil))
	if cst.State != StateCanceled {
		t.Fatalf("cancel response %+v", cst)
	}
	release <- struct{}{} // drain the running cell

	j, _ := s.Job(st.ID)
	j.Wait()
	rst := decode[JobStatus](t, postJSON(t, srv.URL+"/api/jobs/"+st.ID+"/resume", nil))
	if rst.State != StateRunning && rst.State != StateDone {
		t.Fatalf("resume response %+v", rst)
	}
	for i := 0; i < 2; i++ {
		<-started
		release <- struct{}{}
	}
	deadline := time.After(5 * time.Second)
	for {
		if fst := decode[JobStatus](t, mustGet(t, srv.URL+"/api/jobs/"+st.ID)); fst.State == StateDone {
			if fst.Done != 3 {
				t.Fatalf("resumed job finished %d cells, want 3", fst.Done)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("resumed job never finished")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}
