package grid

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
