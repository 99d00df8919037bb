package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// TestServeAndStatusMuxesCoexist: `svrsim serve` and the run-mode
// -status server build private ServeMuxes, so both can live in one
// process — registering the debug surfaces twice on the global
// http.DefaultServeMux would panic with a duplicate-pattern error.
func TestServeAndStatusMuxesCoexist(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("building both muxes panicked: %v", r)
		}
	}()

	serveSrv := httptest.NewServer(newServeMux(scheduler()))
	defer serveSrv.Close()

	statusAddr, stopStatus, err := startStatusServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopStatus()

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Both servers answer their shared observability routes.
	for _, base := range []string{serveSrv.URL, "http://" + statusAddr} {
		if code, body := get(base + "/status"); code != http.StatusOK ||
			!strings.Contains(body, "Scheduler") {
			t.Errorf("GET %s/status = %d\n%s", base, code, body)
		}
		if code, body := get(base + "/debug/vars"); code != http.StatusOK ||
			!strings.Contains(body, "scheduler") {
			t.Errorf("GET %s/debug/vars = %d", base, code)
		}
	}

	// The serve-only routes stay off the -status server.
	if code, body := get(serveSrv.URL + "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "svrsim_grid_queue_wait_us") {
		t.Errorf("GET serve /metrics = %d\n%s", code, body)
	}
	if code, _ := get(serveSrv.URL + "/healthz"); code != http.StatusOK {
		t.Errorf("GET serve /healthz = %d", code)
	}
	if code, _ := get("http://" + statusAddr + "/healthz"); code == http.StatusOK {
		t.Error("-status server serves /healthz; serve-only routes leaked onto it")
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
