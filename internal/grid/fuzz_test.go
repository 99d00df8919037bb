package grid

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// FuzzSubmitJob posts arbitrary bodies to the submit handler. It may only
// answer 202, 400, 413 or 429, every window it accepts must pass
// sim.Params.Validate, and every config it accepts must build and run:
// each is simulated for a few thousand instructions at TinyScale, where
// a config the validator should have refused panics.
func FuzzSubmitJob(f *testing.F) {
	// The two bodies that used to crash a worker: a zero-valued Grid
	// config, and a default in-order config with InO.Width 0.
	f.Add(`{"Grid":[{"Label":"x"}],"Workloads":["NAS-IS"]}`)
	for _, kind := range []sim.CoreKind{sim.InO, sim.IMP, sim.OoO, sim.SVR} {
		cfg := sim.MachineConfig(kind)
		if kind == sim.InO {
			cfg.InO.Width = 0
		}
		blob, err := json.Marshal(SubmitRequest{Grid: []sim.Config{cfg}, Workloads: []string{"NAS-IS"}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(blob))
	}
	f.Add(`{"Configs":["svr16","inorder"],"Workloads":["Randacc"],"Preset":"quick"}`)
	f.Add(`{"Configs":["svr99999999"]}`)
	// Negative image sizes sent the worker's build running away until
	// the server was killed.
	f.Add(`{"Configs":["inorder"],"Workloads":["NAS-IS"],"Params":{"Scale":{"GraphNodes":-5,"Elems":-5,"Seed":1},"Warmup":10,"Measure":10}}`)

	spec, err := workloads.Get("NAS-IS")
	if err != nil {
		f.Fatal(err)
	}
	p := sim.Params{Scale: workloads.TinyScale(), Warmup: 1000, Measure: 3000}
	f.Fuzz(func(t *testing.T, body string) {
		s := New(Options{Workers: 1, QueueCap: 64, ExecuteGroup: stubExecute})
		defer s.Shutdown()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("status %d for body %q", w.Code, body)
		}
		// Decode the body the way the handler did.
		var sr SubmitRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sr); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		req, err := sr.resolve()
		if err != nil {
			t.Fatalf("accepted body does not resolve: %v", err)
		}
		if err := req.Params.Validate(); err != nil {
			t.Fatalf("accepted body carries an unrunnable window: %v", err)
		}
		for _, cfg := range req.Configs {
			sim.Run(spec, cfg, p)
		}
	})
}

// FuzzLoadState loads arbitrary bytes as a server's state file into a
// scheduler whose cells are stubs. A corrupt file must give an error,
// never a panic or a hang; a file that loads must have restored every
// job it lists, and each must run to completion.
func FuzzLoadState(f *testing.F) {
	valid, err := json.Marshal(persistedState{Jobs: []persistedJob{{
		Name: "restored", Priority: 2, Configs: labeled("A"),
		Workloads: []string{"NAS-IS", "HJ2"}, Params: sim.QuickParams(),
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"Jobs":[]}`))
	f.Add([]byte(`{"Jobs":[{"Configs":[{"Label":"x"}],"Workloads":["NAS-IS"]}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, blob, 0o600); err != nil {
			t.Fatal(err)
		}
		s := New(Options{Workers: 1, QueueCap: 64, ExecuteGroup: stubExecute})
		defer s.Shutdown()
		n, err := s.LoadState(path)
		if err != nil {
			return
		}
		var st persistedState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("loaded a file that does not decode: %v", err)
		}
		if n != len(st.Jobs) || len(s.Jobs()) != n {
			t.Fatalf("restored %d jobs (%d listed) from a file of %d", n, len(s.Jobs()), len(st.Jobs))
		}
		for _, j := range s.Jobs() {
			done := make(chan struct{})
			go func() { j.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("restored job %s never finished", j.ID)
			}
		}
	})
}

// FuzzValidateJournal checks arbitrary bytes as a journal. Any input
// gives an error or a summary, never a panic; a summary counts every
// non-blank line once, each under its event.
func FuzzValidateJournal(f *testing.F) {
	var buf bytes.Buffer
	j := NewJournal(JournalConfig{Writer: &buf, Capture: -1})
	SetJournal(j)
	s := New(Options{Workers: 1, ExecuteGroup: stubExecute})
	job, err := s.Submit(JobRequest{Name: "seed", Configs: labeled("A"),
		Workloads: []string{"Randacc", "HJ2"}, Params: sim.QuickParams()})
	if err != nil {
		f.Fatal(err)
	}
	job.Wait()
	s.Shutdown()
	SetJournal(nil)
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"ts":1,"ev":"artifact.evict","class":"graph","n":4096}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		sum, err := ValidateJournal(bytes.NewReader(blob))
		if err != nil {
			return
		}
		lines := 0
		for _, l := range bytes.Split(blob, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		events := 0
		for _, n := range sum.Events {
			events += n
		}
		if sum.Lines != lines || events != lines {
			t.Fatalf("summary counts %d lines and %d events of %d", sum.Lines, events, lines)
		}
	})
}
