package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// TestServeMuxRoutes: GET /api/status is serve's one status document,
// next to the Prometheus, health and stdlib debug routes; the routes
// that repeated a subset of it are gone.
func TestServeMuxRoutes(t *testing.T) {
	s := grid.New(grid.Options{Workers: 1})
	defer s.Shutdown()
	srv := httptest.NewServer(newServeMux(s))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// One tiny job, so the status document has result-store traffic to
	// report: its run-cache lookups are the "result" artifact class.
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(
		`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":512,"Elems":1024,"Seed":42},"Warmup":1000,"Measure":5000}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job grid.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/jobs = %d, %v", resp.StatusCode, err)
	}
	if code, body := get("/api/jobs/" + job.ID + "/results"); code != http.StatusOK {
		t.Fatalf("GET results = %d\n%s", code, body)
	}

	code, body := get("/api/status")
	if code != http.StatusOK {
		t.Fatalf("GET /api/status = %d\n%s", code, body)
	}
	var st grid.StatusPayload
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/api/status does not decode into grid.StatusPayload: %v\n%s", err, body)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != grid.StateDone {
		t.Errorf("/api/status jobs = %+v, want the one finished job", st.Jobs)
	}
	if r := st.Artifacts["result"]; r.Hits+r.Misses == 0 {
		t.Errorf("/api/status reports no result-store lookups:\n%s", body)
	}

	for path, want := range map[string]string{
		"/debug/vars":   `"memstats"`,
		"/debug/pprof/": "goroutine",
		"/metrics":      "svrsim_grid_queue_wait_us",
		"/healthz":      "ok",
	} {
		if code, body := get(path); code != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, want 200 containing %q\n%.400s", path, code, want, body)
		}
	}
	for _, path := range []string{"/status", "/api/artifacts"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestServeRejectsUnrunnableParams: a window whose image no builder can
// finish (negative sizes sent one running away until the kernel killed
// the server) or whose lengths exceed the caps is refused with 400 at
// submit, before any worker builds anything. The server keeps answering
// afterwards.
func TestServeRejectsUnrunnableParams(t *testing.T) {
	s := grid.New(grid.Options{Workers: 1})
	defer s.Shutdown()
	srv := httptest.NewServer(newServeMux(s))
	defer srv.Close()

	for _, body := range []string{
		`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":-5,"Elems":-5,"Seed":1},"Warmup":10,"Measure":10}}`,
		`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":1073741824,"Elems":1024,"Seed":1},"Measure":10}}`,
		`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":512,"Elems":1024,"Seed":1},"Measure":100000,"SampleEvery":1}}`,
		`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":512,"Elems":1024,"Seed":1},"Measure":10,"Regions":1000000}}`,
	} {
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400\n%s", body, resp.StatusCode, msg)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected submissions created %d jobs", n)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the rejected submissions = %d", resp.StatusCode)
	}
}

// TestServeRejectsUnbuildableConfig: a Grid config no constructor can
// build (a zero-valued hierarchy divides by zero ways; a zero issue
// width divides the in-order slot clock) is refused with 400 at submit
// instead of panicking a worker and killing the server with every
// queued job. The server keeps answering afterwards.
func TestServeRejectsUnbuildableConfig(t *testing.T) {
	s := grid.New(grid.Options{Workers: 1})
	defer s.Shutdown()
	srv := httptest.NewServer(newServeMux(s))
	defer srv.Close()

	widthZero := sim.MachineConfig(sim.InO)
	widthZero.InO.Width = 0
	blob, err := json.Marshal(grid.SubmitRequest{Grid: []sim.Config{widthZero}, Workloads: []string{"NAS-IS"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"Grid":[{"Label":"x"}],"Workloads":["NAS-IS"]}`, string(blob)} {
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400\n%s", body, resp.StatusCode, msg)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected submissions created %d jobs", n)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the rejected submissions = %d", resp.StatusCode)
	}
}
